package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"memcontention/internal/lease"
	"memcontention/internal/obs"
)

// drainedFleetDir runs one remote worker to completion in a fresh
// campaign directory and returns the directory plus the worker's report
// and the shared clock, so fleet tests collect over a real campaign's
// artifacts rather than hand-built fixtures.
func drainedFleetDir(t *testing.T) (string, *RemoteReport, *remoteClock) {
	t.Helper()
	clk := newRemoteClock()
	dir := filepath.Join(t.TempDir(), "campaign")
	opts := RemoteOptions{Dir: dir, Shards: 4, Lease: remoteLease(clk), Sleep: tinySleep}
	rep, err := RemoteWorker(Config{Seed: 1}, opts, testNames)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drained {
		t.Fatalf("worker did not drain: %+v", rep)
	}
	if rep.ObsErrors != 0 {
		t.Fatalf("worker reported %d observability errors", rep.ObsErrors)
	}
	return dir, rep, clk
}

func TestCollectFleetDrainedCampaign(t *testing.T) {
	dir, wrep, clk := drainedFleetDir(t)
	rep, err := CollectFleet(FleetOptions{Dir: dir, TTL: time.Second, Grace: -1, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Units == 0 || rep.Done != rep.Units || rep.Pending != 0 || rep.Quarantined != 0 {
		t.Fatalf("drained campaign counts: %+v", rep)
	}
	if rep.Done != wrep.Units {
		t.Fatalf("fleet sees %d done, worker reported %d", rep.Done, wrep.Units)
	}
	var shardSum int
	for _, s := range rep.Shards {
		shardSum += s.Done
		if s.Pending != 0 || s.Quarantined != 0 {
			t.Fatalf("drained shard has residue: %+v", s)
		}
	}
	if shardSum != rep.Done {
		t.Fatalf("shard views sum to %d, report says %d", shardSum, rep.Done)
	}

	if len(rep.Workers) != 1 {
		t.Fatalf("workers: %+v, want exactly one", rep.Workers)
	}
	w := rep.Workers[0]
	if w.State != WorkerDrained || w.Stale {
		t.Fatalf("drained worker: %+v", w)
	}
	if w.Worker != wrep.Owner.Token || w.Owner != wrep.Owner.String() {
		t.Fatalf("worker identity %q (%q), worker owner %v", w.Worker, w.Owner, wrep.Owner)
	}
	if w.Units != wrep.Units || w.Fenced != 0 || len(w.Leases) != 0 {
		t.Fatalf("drained worker counters: %+v", w)
	}

	if len(rep.Leases) != 0 {
		t.Fatalf("drained campaign still shows leases: %+v", rep.Leases)
	}

	// The event timeline tells the whole story exactly once: one join,
	// one drain, one claim per acquired lease, one completion per shard
	// that had units.
	counts := map[EventType]int{}
	for _, ec := range rep.Events {
		counts[ec.Type] = ec.Count
	}
	shardsWithUnits := 0
	for _, s := range rep.Shards {
		if s.Done > 0 {
			shardsWithUnits++
		}
	}
	if counts[EventWorkerJoin] != 1 || counts[EventWorkerDrain] != 1 {
		t.Fatalf("lifecycle events: %+v", rep.Events)
	}
	if counts[EventUnitDone] != wrep.Units {
		t.Fatalf("%d unit-done events for %d units", counts[EventUnitDone], wrep.Units)
	}
	if counts[EventLeaseClaim] != len(wrep.Claimed) {
		t.Fatalf("%d claim events for %d claims", counts[EventLeaseClaim], len(wrep.Claimed))
	}
	if counts[EventShardComplete] != shardsWithUnits {
		t.Fatalf("%d shard-complete events, %d shards had units", counts[EventShardComplete], shardsWithUnits)
	}
	if counts[EventLeaseFence] != 0 || counts[EventOrphanTakeover] != 0 {
		t.Fatalf("solo drain shows contention events: %+v", rep.Events)
	}
	if len(rep.Timeline) == 0 || rep.Timeline[0].Type != EventWorkerJoin {
		t.Fatalf("timeline does not open with the join: %+v", rep.Timeline[:1])
	}
}

func TestCollectFleetEmptyAndMissingCampaign(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign")
	if _, err := CollectFleet(FleetOptions{Dir: dir}); err == nil {
		t.Fatal("collected a fleet report from a directory with no manifest")
	}
	if _, err := CollectFleet(FleetOptions{}); err == nil {
		t.Fatal("collected a fleet report with no directory")
	}

	// A manifest alone is a valid (not yet started) campaign: everything
	// is pending, nothing else exists.
	man := Manifest{Seed: 1, Platforms: testNames, Shards: 4}
	if _, err := EnsureManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	rep, err := CollectFleet(FleetOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Units == 0 || rep.Pending != rep.Units || rep.Done != 0 {
		t.Fatalf("fresh campaign counts: %+v", rep)
	}
	if len(rep.Workers) != 0 || len(rep.Leases) != 0 || len(rep.Timeline) != 0 {
		t.Fatalf("fresh campaign shows fleet residue: %+v", rep)
	}
}

// emitEvents writes one worker's event journal under dir, each event
// stamped at the clock's current instant.
func emitEvents(t *testing.T, dir, worker string, clk *remoteClock, events ...Event) {
	t.Helper()
	log, err := OpenEventLog(dir, worker, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := log.Emit(e.Type, e.Shard, e.Epoch, e.Key, e.Detail); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectFleetStaleWorkerAndQuarantine(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign")
	man := Manifest{Seed: 1, Platforms: testNames, Shards: 4}
	if _, err := EnsureManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	units, err := pipelineUnits(Config{Seed: 1}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	poison := units[0].Key
	join := Event{Type: EventWorkerJoin, Shard: WorkerScope}
	done := Event{Type: EventUnitDone, Shard: 0, Epoch: 1, Key: "k"}

	// A SIGKILLed worker's journal ends without an exit event; once its
	// newest event is older than the staleness bound the fleet flags it
	// and stops trusting its throughput.
	clk := newRemoteClock()
	emitEvents(t, dir, "deadbeef", clk, join, done, done, done,
		Event{Type: EventUnitQuarantine, Shard: homeShard(poison, man.Shards), Key: poison, Detail: "boom"})
	emitEvents(t, dir, "failbeef", clk, join, Event{Type: EventWorkerFail, Shard: WorkerScope, Detail: "boom"})
	clk.Advance(5 * time.Second)
	emitEvents(t, dir, "livebeef", clk, join, done, done)

	rep, err := CollectFleet(FleetOptions{Dir: dir, TTL: time.Second, Grace: -1, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 || rep.Pending != rep.Units-1 {
		t.Fatalf("quarantine counts: %+v", rep)
	}
	if sp := rep.Shards[homeShard(poison, man.Shards)]; sp.Quarantined != 1 {
		t.Fatalf("poison unit's home shard view: %+v", sp)
	}
	byName := map[string]FleetWorker{}
	for _, w := range rep.Workers {
		byName[w.Worker] = w
	}
	if w := byName["deadbeef"]; w.State != WorkerRunning || !w.Stale || w.Units != 3 || w.AgeSeconds != 5 {
		t.Fatalf("5s-old running worker not stale: %+v", w)
	}
	if w := byName["failbeef"]; w.State != WorkerFailed || w.Stale {
		t.Fatalf("failed worker: %+v", w)
	}
	if w := byName["livebeef"]; w.State != WorkerRunning || w.Stale || w.UnitsPerSec != 2/fleetRateWindow.Seconds() {
		t.Fatalf("fresh running worker: %+v", w)
	}
	// Only the live worker's throughput counts toward the ETA.
	if want := byName["livebeef"].UnitsPerSec; rep.UnitsPerSec != want || rep.ETASeconds != float64(rep.Pending)/want {
		t.Fatalf("fleet throughput %v, ETA %v; want the live worker's %v", rep.UnitsPerSec, rep.ETASeconds, want)
	}

	// A live lease heartbeat keeps a worker that emits nothing (one long
	// unit) from going stale, and lists the lease on its row.
	mgr, err := lease.NewManager(lease.Config{Dir: filepath.Join(dir, LeaseDir), TTL: time.Second,
		Heartbeat: 100 * time.Millisecond, Grace: -1, Clock: clk.Now,
		Owner: lease.Owner{Host: "test", PID: 1, Token: "deadbeef"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Acquire(2, 0); err != nil {
		t.Fatal(err)
	}
	rep, err = CollectFleet(FleetOptions{Dir: dir, TTL: time.Second, Grace: -1, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range rep.Workers {
		if w.Worker == "deadbeef" && (w.Stale || len(w.Leases) != 1 || w.Leases[0] != (LeaseHolding{Shard: 2, Epoch: 1})) {
			t.Fatalf("heartbeating worker: %+v", w)
		}
	}
}

// TestCollectFleetCountsWorkerQuarantines: memworker processes write no
// quarantine.jsonl, so a unit two workers gave up on is quarantined in
// the fleet view through their unit-quarantine events alone.
func TestCollectFleetCountsWorkerQuarantines(t *testing.T) {
	clk := newRemoteClock()
	poison := "unit|netbench|" + testNames[0]
	opts := RemoteOptions{Dir: filepath.Join(t.TempDir(), "campaign"), Shards: 4, Lease: remoteLease(clk),
		Sleep: tinySleep, MaxAttempts: 2, faultHook: poisonHook(poison)}
	for i := 0; i < 2; i++ {
		rep, err := RemoteWorker(Config{Seed: 1}, opts, testNames)
		if !errors.Is(err, ErrQuarantined) || len(rep.Quarantined) != 1 {
			t.Fatalf("worker %d: err = %v, quarantined %+v; want the poison unit", i, err, rep.Quarantined)
		}
	}
	if _, err := os.Stat(filepath.Join(opts.Dir, QuarantineFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("lease workers wrote %s (%v)", QuarantineFile, err)
	}
	rep, err := CollectFleet(FleetOptions{Dir: opts.Dir, TTL: time.Second, Grace: -1, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 || rep.Pending != 0 || rep.Done != rep.Units-1 {
		t.Fatalf("fleet counts: %d done, %d pending, %d quarantined of %d; want the poison unit quarantined",
			rep.Done, rep.Pending, rep.Quarantined, rep.Units)
	}
	if sp := rep.Shards[homeShard(poison, 4)]; sp.Quarantined != 1 || sp.Pending != 0 {
		t.Fatalf("poison unit's home shard: %+v", sp)
	}
	if len(rep.Workers) != 2 || rep.Workers[0].State != WorkerDrained || rep.Workers[1].State != WorkerDrained {
		t.Fatalf("workers: %+v, want two drained", rep.Workers)
	}
}

// TestFleetObsFinishClassifiesExit: each way a worker can end maps to
// one lifecycle event, and the fleet view reads it back as a state.
func TestFleetObsFinishClassifiesExit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign")
	if _, err := EnsureManifest(dir, Manifest{Seed: 1, Platforms: testNames, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	clk := newRemoteClock()
	exits := map[string]error{
		"w0": nil,
		"w1": &QuarantineError{Records: []QuarantineRecord{{Key: "k"}}},
		"w2": fmt.Errorf("campaign: remote worker: %w", context.Canceled),
		"w3": errors.New("journal: disk full"),
	}
	for _, id := range []string{"w0", "w1", "w2", "w3"} {
		fo, err := newFleetObs(dir, lease.Owner{Host: "test", PID: 1, Token: id}, clk.Now)
		if err != nil {
			t.Fatal(err)
		}
		fo.finish(exits[id])
		if fo.errors() != 0 {
			t.Fatalf("%s: %d event writes failed", id, fo.errors())
		}
	}
	rep, err := CollectFleet(FleetOptions{Dir: dir, TTL: time.Second, Grace: -1, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range rep.Workers {
		got = append(got, w.Worker+":"+w.State+":"+w.Owner)
	}
	want := []string{"w0:drained:test/1/w0", "w1:drained:test/1/w1", "w2:stopped:test/1/w2", "w3:failed:test/1/w3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("worker states %v, want %v", got, want)
	}
	last := rep.Timeline[len(rep.Timeline)-1]
	if last.Type != EventWorkerFail || last.Detail != "journal: disk full" {
		t.Fatalf("failing worker's last event %+v, want worker-fail with the error", last)
	}
}

func TestCollectFleetDeterministicAtFrozenClock(t *testing.T) {
	dir, _, clk := drainedFleetDir(t)
	opts := FleetOptions{Dir: dir, TTL: time.Second, Grace: -1, Clock: clk.Now}
	images := make([][]byte, 2)
	for i := range images {
		rep, err := CollectFleet(opts)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		images[i] = data
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Fatalf("fleet reports differ at a frozen clock:\n%s\n%s", images[0], images[1])
	}
}

func TestFleetReportPublishAndRender(t *testing.T) {
	dir, _, clk := drainedFleetDir(t)
	rep, err := CollectFleet(FleetOptions{Dir: dir, TTL: time.Second, Grace: -1, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	rep.Publish(reg)
	gauge := func(name string, labels obs.L) float64 {
		return reg.Gauge(name, "", labels).Value()
	}
	if got := gauge("memcontention_fleet_units_done", nil); got != float64(rep.Done) {
		t.Fatalf("units_done gauge %v, want %d", got, rep.Done)
	}
	if got := gauge("memcontention_fleet_units_pending", nil); got != 0 {
		t.Fatalf("units_pending gauge %v, want 0", got)
	}
	if got := gauge("memcontention_fleet_workers", obs.L{"state": WorkerDrained}); got != 1 {
		t.Fatalf("drained workers gauge %v, want 1", got)
	}
	// Absent states publish explicit zeros, not gaps.
	if got := gauge("memcontention_fleet_workers", obs.L{"state": WorkerFailed}); got != 0 {
		t.Fatalf("failed workers gauge %v, want explicit 0", got)
	}
	if got := gauge("memcontention_fleet_events", obs.L{"type": string(EventWorkerDrain)}); got != 1 {
		t.Fatalf("drain event gauge %v, want 1", got)
	}

	// Republishing after a fresh collection must not grow the registry:
	// the instrument set is fixed, so exporter output stays comparable
	// scrape to scrape.
	var a bytes.Buffer
	if err := reg.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	rep2, err := CollectFleet(FleetOptions{Dir: dir, TTL: time.Second, Grace: -1, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	rep2.Publish(reg)
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("republish changed the exporter bytes:\n%s\n%s", a.String(), b.String())
	}

	// Both renderers walk the whole report without error and mention the
	// load-bearing facts.
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"campaign:", "units:", "workers: 1", "events:", "drained"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, text.String())
		}
	}
	var tl bytes.Buffer
	if err := rep.WriteTimeline(&tl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(tl.String(), "\n"), "\n")
	if len(lines) != len(rep.Timeline) {
		t.Fatalf("timeline rendered %d lines for %d events", len(lines), len(rep.Timeline))
	}
	if !strings.Contains(lines[0], string(EventWorkerJoin)) {
		t.Fatalf("timeline first line %q lacks the join", lines[0])
	}
}

// TestCollectFleetNilSafety pins the degenerate inputs: nil report
// publish and a Publish onto a nil registry are no-ops.
func TestCollectFleetNilSafety(t *testing.T) {
	var rep *FleetReport
	rep.Publish(obs.NewRegistry())
	(&FleetReport{}).Publish(nil)
}
