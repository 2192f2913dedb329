package campaign

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"memcontention/internal/checkpoint"
	"memcontention/internal/lease"
	"memcontention/internal/obs"
)

// This file is the fleet aggregator behind cmd/memtop: a strictly
// read-only view over one campaign directory that joins everything the
// lease workers write — the campaign event journal, the shard journals
// and the lease files — into one consistent report. Workers keep no
// status document of their own: each worker's state, counters and
// throughput are derived from its events, and its leases and liveness
// from the lease files. The aggregator never creates, touches or locks
// anything, so an operator can point it at a live campaign without
// perturbing the workers it observes.

// FleetOptions parameterises one fleet collection.
type FleetOptions struct {
	// Dir is the campaign directory (required; its campaign.json is the
	// authority for the unit universe).
	Dir string
	// TTL and Grace judge lease staleness, exactly like the workers'
	// lease.Config (zero: the lease defaults, 15s TTL with TTL/2 grace;
	// negative Grace means none), and the same TTL+Grace bound marks a
	// running worker stale. Campaigns running with shortened leases —
	// the soak harness — must pass their own values or live zombies
	// misread as healthy.
	TTL   time.Duration
	Grace time.Duration
	// Clock supplies "now" for every age computation (nil:
	// obs.WallClock).
	Clock obs.Clock
}

// Worker states, read from a worker's last lifecycle event. A running
// worker goes stale when its signs of life stop; the terminal states
// are trustworthy forever.
const (
	// WorkerRunning: the worker joined and has not exited (worker-join).
	WorkerRunning = "running"
	// WorkerDrained: the worker observed the whole campaign complete and
	// exited cleanly (worker-drain).
	WorkerDrained = "drained"
	// WorkerStopped: the worker was canceled — first SIGINT/SIGTERM —
	// and exited cleanly (worker-stop).
	WorkerStopped = "stopped"
	// WorkerFailed: the worker exited on an error (worker-fail, whose
	// Detail says which unit or lease operation failed).
	WorkerFailed = "failed"
)

// fleetRateWindow is the span a worker's throughput is measured over:
// long enough that a multi-second unit still registers, short enough
// that a stalled worker reads 0 within a minute.
const fleetRateWindow = 30 * time.Second

// ShardProgress is one shard's completion state in the fleet report.
type ShardProgress struct {
	Shard       int `json:"shard"`
	Done        int `json:"done"`
	Pending     int `json:"pending"`
	Quarantined int `json:"quarantined"`
}

// LeaseHolding is one lease a worker holds: the shard and the fencing
// epoch it was acquired under.
type LeaseHolding struct {
	Shard int    `json:"shard"`
	Epoch uint64 `json:"epoch"`
}

// FleetWorker is one worker as its event journal and the lease files
// describe it at collection time.
type FleetWorker struct {
	// Worker is the writer id of the worker's event journal: its lease
	// owner token.
	Worker string `json:"worker"`
	// Owner is the host/pid/token identity its join event names.
	Owner string `json:"owner,omitempty"`
	// State is one of WorkerRunning, WorkerDrained, WorkerStopped,
	// WorkerFailed: the worker's last lifecycle event.
	State string `json:"state"`
	// StartedUnixNano is the worker's first event. UpdatedUnixNano is
	// its newest sign of life: its newest event or lease heartbeat.
	StartedUnixNano int64 `json:"started_unix_nano"`
	UpdatedUnixNano int64 `json:"updated_unix_nano"`
	// Units, Fenced and RenewErrors count the worker's unit-done,
	// lease-fence and lease-renew-failure events.
	Units       int `json:"units"`
	Fenced      int `json:"fenced"`
	RenewErrors int `json:"renew_errors"`
	// UnitsPerSec is the worker's unit-done events in the last
	// fleetRateWindow, per second.
	UnitsPerSec float64 `json:"units_per_sec"`
	// Leases lists the lease files naming the worker, sorted by shard.
	Leases []LeaseHolding `json:"leases,omitempty"`
	// AgeSeconds is collection time minus UpdatedUnixNano.
	AgeSeconds float64 `json:"age_seconds"`
	// Stale marks a running worker with no sign of life for TTL+Grace:
	// it crashed, hung or was SIGKILLed before it could record its exit.
	Stale bool `json:"stale,omitempty"`
}

// FleetLease is one shard lease as seen at collection time.
type FleetLease struct {
	Shard int    `json:"shard"`
	State string `json:"state"` // live, stale or corrupt
	Owner string `json:"owner,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
	// AgeSeconds is collection time minus the last heartbeat (0 for
	// corrupt leases).
	AgeSeconds float64 `json:"age_seconds"`
}

// EventCount is one event type's total in the campaign timeline.
type EventCount struct {
	Type  EventType `json:"type"`
	Count int       `json:"count"`
}

// FleetReport is the joined point-in-time view of a campaign fleet.
// Done counts come from the shard journals (the ground truth the merge
// uses), never from events — a crashed worker's unreported units still
// count, and memtop's totals therefore always agree with what
// `memworker -merge` will produce. A unit no journal holds counts as
// quarantined once any worker emitted unit-quarantine for it.
type FleetReport struct {
	Dir               string          `json:"dir"`
	GeneratedUnixNano int64           `json:"generated_unix_nano"`
	Manifest          Manifest        `json:"manifest"`
	Units             int             `json:"units"`
	Done              int             `json:"done"`
	Pending           int             `json:"pending"`
	Quarantined       int             `json:"quarantined"`
	Shards            []ShardProgress `json:"shards"`
	Workers           []FleetWorker   `json:"workers,omitempty"`
	Leases            []FleetLease    `json:"leases,omitempty"`
	// UnitsPerSec sums the throughput of the live running workers;
	// ETASeconds divides the pending count by it (0 when the fleet is
	// idle — no ETA is representable).
	UnitsPerSec float64      `json:"units_per_sec"`
	ETASeconds  float64      `json:"eta_seconds,omitempty"`
	Events      []EventCount `json:"events,omitempty"`
	// Timeline is the deterministic merged event journal, ordered by
	// (time, worker, seq).
	Timeline []Event `json:"timeline,omitempty"`
}

// CollectFleet builds the fleet report of the campaign in o.Dir. The
// campaign manifest must exist (a directory without one is not a
// campaign); every other surface degrades gracefully — no events and no
// leases are both valid states of a finished or not yet started
// campaign.
func CollectFleet(o FleetOptions) (*FleetReport, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("campaign: fleet report needs a campaign directory")
	}
	lcfg := lease.Config{TTL: o.TTL, Grace: o.Grace, Clock: o.Clock}.WithDefaults()
	man, err := LoadManifest(o.Dir)
	if err != nil {
		return nil, err
	}
	cfg := Config{Seed: man.Seed, Replications: man.Replications}.withDefaults()
	units, err := pipelineUnits(cfg, man.Platforms)
	if err != nil {
		return nil, err
	}
	done, err := journaledKeys(o.Dir)
	if err != nil {
		return nil, err
	}
	timeline, err := ReadEvents(o.Dir)
	if err != nil {
		return nil, err
	}
	infos, err := lease.Scan(filepath.Join(o.Dir, LeaseDir), lcfg.TTL, lcfg.Grace, lcfg.Clock)
	if err != nil {
		return nil, err
	}

	counts := make(map[EventType]int)
	quarantined := make(map[string]bool)
	for _, e := range timeline {
		counts[e.Type]++
		if e.Type == EventUnitQuarantine {
			quarantined[e.Key] = true
		}
	}
	now := lcfg.Clock()
	rep := &FleetReport{
		Dir:               o.Dir,
		GeneratedUnixNano: now.UnixNano(),
		Manifest:          man,
		Units:             len(units),
		Shards:            make([]ShardProgress, man.Shards),
		Workers:           fleetWorkers(timeline, infos, now, lcfg.TTL+lcfg.Grace),
		Timeline:          timeline,
	}
	for i := range rep.Shards {
		rep.Shards[i].Shard = i
	}
	for _, u := range units {
		sp := &rep.Shards[homeShard(u.Key, man.Shards)]
		switch {
		case done[u.Key]:
			sp.Done++
			rep.Done++
		case quarantined[u.Key]:
			sp.Quarantined++
			rep.Quarantined++
		default:
			sp.Pending++
			rep.Pending++
		}
	}
	for _, w := range rep.Workers {
		if w.State == WorkerRunning && !w.Stale {
			rep.UnitsPerSec += w.UnitsPerSec
		}
	}
	if rep.UnitsPerSec > 0 && rep.Pending > 0 {
		rep.ETASeconds = float64(rep.Pending) / rep.UnitsPerSec
	}
	for _, in := range infos {
		fl := FleetLease{Shard: in.Shard, State: string(in.State), AgeSeconds: in.Age.Seconds()}
		if in.State != lease.StateCorrupt {
			fl.Owner = in.Lease.Owner.String()
			fl.Epoch = in.Lease.Epoch
		}
		rep.Leases = append(rep.Leases, fl)
	}
	for _, t := range eventTypeOrder {
		if counts[t] > 0 {
			rep.Events = append(rep.Events, EventCount{Type: t, Count: counts[t]})
		}
	}
	return rep, nil
}

// fleetWorkers folds the timeline into one row per worker, sorted by
// worker id, and attaches the lease files naming each worker. Every
// worker joins before it claims, so a lease whose owner has no events
// (its journal writes failed) appears only in the report's lease list.
func fleetWorkers(timeline []Event, infos []lease.Info, now time.Time, staleAfter time.Duration) []FleetWorker {
	byID := make(map[string]*FleetWorker)
	var ids []string
	for _, e := range timeline {
		w := byID[e.Worker]
		if w == nil {
			w = &FleetWorker{Worker: e.Worker, State: WorkerRunning, StartedUnixNano: e.TimeUnixNano}
			byID[e.Worker] = w
			ids = append(ids, e.Worker)
		}
		w.UpdatedUnixNano = max(w.UpdatedUnixNano, e.TimeUnixNano)
		switch e.Type {
		case EventWorkerJoin:
			w.State, w.Owner = WorkerRunning, e.Detail
		case EventWorkerDrain:
			w.State = WorkerDrained
		case EventWorkerStop:
			w.State = WorkerStopped
		case EventWorkerFail:
			w.State = WorkerFailed
		case EventUnitDone:
			w.Units++
			if now.Sub(time.Unix(0, e.TimeUnixNano)) < fleetRateWindow {
				w.UnitsPerSec++
			}
		case EventLeaseFence:
			w.Fenced++
		case EventLeaseRenewFailure:
			w.RenewErrors++
		}
	}
	for _, in := range infos {
		if w := byID[in.Lease.Owner.Token]; w != nil {
			w.Leases = append(w.Leases, LeaseHolding{Shard: in.Shard, Epoch: in.Lease.Epoch})
			w.UpdatedUnixNano = max(w.UpdatedUnixNano, in.Lease.HeartbeatUnixNano)
		}
	}
	sort.Strings(ids)
	workers := make([]FleetWorker, len(ids))
	for i, id := range ids {
		w := byID[id]
		w.UnitsPerSec /= fleetRateWindow.Seconds()
		age := now.Sub(time.Unix(0, w.UpdatedUnixNano))
		w.AgeSeconds = age.Seconds()
		w.Stale = w.State == WorkerRunning && age > staleAfter
		workers[i] = *w
	}
	return workers
}

// eventTypeOrder fixes the rendering order of event counts: lifecycle,
// lease machinery, completion — the order an operator reads a campaign's
// story in.
var eventTypeOrder = []EventType{
	EventWorkerJoin,
	EventWorkerDrain,
	EventWorkerStop,
	EventWorkerFail,
	EventLeaseClaim,
	EventOrphanTakeover,
	EventLeaseRenewFailure,
	EventLeaseFence,
	EventUnitDone,
	EventShardComplete,
	EventUnitQuarantine,
}

// journaledKeys unions the unit keys of every shard journal file in dir
// (all epochs, dead ones included), read tolerantly and without
// creating anything — the monitor's replica of the pendingUnits scan.
func journaledKeys(dir string) (map[string]bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("campaign: fleet scan %s: %w", dir, err)
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, _, ok := checkpoint.ParseShardFile(e.Name()); ok {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	merged, err := checkpoint.MergeShardFiles(paths)
	if err != nil {
		return nil, err
	}
	keys := make(map[string]bool, len(merged))
	for _, e := range merged {
		keys[e.Key] = true
	}
	return keys, nil
}

// Publish refreshes the memcontention_fleet_* gauges from the report.
// The instrument set is fixed (every state label is always published,
// zero or not), so scrapes stay byte-deterministic across refreshes and
// absent states read as explicit zeros instead of gaps.
func (r *FleetReport) Publish(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	workerStates := map[string]int{}
	stale := 0
	for _, w := range r.Workers {
		workerStates[w.State]++
		if w.Stale {
			stale++
		}
	}
	for _, state := range []string{WorkerRunning, WorkerDrained, WorkerStopped, WorkerFailed} {
		reg.Gauge("memcontention_fleet_workers",
			"Campaign workers by lifecycle state.", obs.L{"state": state}).Set(float64(workerStates[state]))
	}
	reg.Gauge("memcontention_fleet_workers_stale",
		"Running workers with no event or lease heartbeat for TTL+grace (presumed crashed).", nil).Set(float64(stale))

	leaseStates := map[string]int{}
	for _, l := range r.Leases {
		leaseStates[l.State]++
	}
	for _, state := range []string{string(lease.StateLive), string(lease.StateStale), string(lease.StateCorrupt)} {
		reg.Gauge("memcontention_fleet_leases",
			"Shard leases by liveness state.", obs.L{"state": state}).Set(float64(leaseStates[state]))
	}

	reg.Gauge("memcontention_fleet_units", "Experiment units in the campaign.", nil).Set(float64(r.Units))
	reg.Gauge("memcontention_fleet_units_done", "Units journaled somewhere in the shard set.", nil).Set(float64(r.Done))
	reg.Gauge("memcontention_fleet_units_pending", "Units not yet journaled or quarantined.", nil).Set(float64(r.Pending))
	reg.Gauge("memcontention_fleet_units_quarantined", "Units quarantined as poison.", nil).Set(float64(r.Quarantined))
	reg.Gauge("memcontention_fleet_units_per_sec", "Summed 30s throughput of the live workers.", nil).Set(r.UnitsPerSec)
	reg.Gauge("memcontention_fleet_eta_seconds", "Pending units over fleet throughput (0: no live throughput).", nil).Set(r.ETASeconds)

	for _, t := range eventTypeOrder {
		n := 0
		for _, ec := range r.Events {
			if ec.Type == t {
				n = ec.Count
			}
		}
		reg.Gauge("memcontention_fleet_events",
			"Campaign timeline events by type.", obs.L{"type": string(t)}).Set(float64(n))
	}
}

// WriteText renders the report as the memtop one-shot view. Everything
// derives from the report fields, so the bytes are deterministic given
// a deterministic report.
func (r *FleetReport) WriteText(w io.Writer) error {
	pct := 0.0
	if r.Units > 0 {
		pct = 100 * float64(r.Done) / float64(r.Units)
	}
	plats := strings.Join(r.Manifest.Platforms, ",")
	if _, err := fmt.Fprintf(w, "campaign: seed %d, platforms %s, %d shards\n",
		r.Manifest.Seed, plats, r.Manifest.Shards); err != nil {
		return err
	}
	fmt.Fprintf(w, "units: %d/%d done (%.1f%%), %d pending, %d quarantined\n",
		r.Done, r.Units, pct, r.Pending, r.Quarantined)
	switch {
	case r.ETASeconds > 0:
		fmt.Fprintf(w, "rate: %.2f units/s, ETA %.1fs\n", r.UnitsPerSec, r.ETASeconds)
	case r.Pending > 0:
		fmt.Fprintf(w, "rate: %.2f units/s, ETA unknown (no live throughput)\n", r.UnitsPerSec)
	default:
		fmt.Fprintf(w, "rate: %.2f units/s\n", r.UnitsPerSec)
	}
	fmt.Fprintf(w, "shards:\n")
	for _, s := range r.Shards {
		fmt.Fprintf(w, "  shard %d: %d done, %d pending, %d quarantined\n",
			s.Shard, s.Done, s.Pending, s.Quarantined)
	}
	fmt.Fprintf(w, "workers: %d\n", len(r.Workers))
	for _, wk := range r.Workers {
		state := wk.State
		if wk.Stale {
			state += " (stale)"
		}
		fmt.Fprintf(w, "  %s: %s, %d units, %.2f units/s, updated %.1fs ago",
			wk.Worker, state, wk.Units, wk.UnitsPerSec, wk.AgeSeconds)
		if len(wk.Leases) > 0 {
			parts := make([]string, len(wk.Leases))
			for i, h := range wk.Leases {
				parts[i] = fmt.Sprintf("%d@e%d", h.Shard, h.Epoch)
			}
			fmt.Fprintf(w, ", leases %s", strings.Join(parts, " "))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "leases: %d\n", len(r.Leases))
	for _, l := range r.Leases {
		if l.State == string(lease.StateCorrupt) {
			fmt.Fprintf(w, "  shard %d: corrupt\n", l.Shard)
			continue
		}
		fmt.Fprintf(w, "  shard %d: %s, epoch %d, owner %s, heartbeat %.1fs ago\n",
			l.Shard, l.State, l.Epoch, l.Owner, l.AgeSeconds)
	}
	total := 0
	for _, ec := range r.Events {
		total += ec.Count
	}
	fmt.Fprintf(w, "events: %d\n", total)
	for _, ec := range r.Events {
		fmt.Fprintf(w, "  %s: %d\n", ec.Type, ec.Count)
	}
	return nil
}

// WriteTimeline renders the merged event journal, one event per line in
// (time, worker, seq) order — the causal story of the campaign.
func (r *FleetReport) WriteTimeline(w io.Writer) error {
	for _, e := range r.Timeline {
		ts := time.Unix(0, e.TimeUnixNano).UTC().Format("15:04:05.000")
		line := fmt.Sprintf("%s %-12s %s", ts, e.Worker, e.Type)
		if e.Shard != WorkerScope {
			line += fmt.Sprintf(" shard=%d", e.Shard)
		}
		if e.Epoch != 0 {
			line += fmt.Sprintf(" epoch=%d", e.Epoch)
		}
		if e.Key != "" {
			line += fmt.Sprintf(" key=%s", e.Key)
		}
		if e.Detail != "" {
			line += fmt.Sprintf(" (%s)", e.Detail)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
