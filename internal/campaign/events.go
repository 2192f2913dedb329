package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"memcontention/internal/atomicio"
	"memcontention/internal/checkpoint"
	"memcontention/internal/obs"
)

// This file is the campaign event journal: an append-only, CRC32-framed
// JSONL stream of fleet-level events (worker join/drain/stop/fail, lease
// claims, renewal failures, fences, orphan takeovers, unit completions,
// shard completions, unit quarantines). Every writer — one lease worker,
// whether a memworker process or one of RunLocal's goroutines — appends
// to its own file under <campaign-dir>/events/, so no two writers ever
// interleave, and readers union all files into one deterministic
// timeline: events sort by (time, worker, sequence), which is a total
// order because sequence numbers are unique per writer.
//
// Events are observability, not coordination: the campaign's correctness
// never depends on them (leases and shard journals carry the real
// state). They are, however, the only record a worker writes about
// itself: the fleet view (fleet.go) derives every worker's state,
// counters and throughput from them. They use the same single-line
// CRC32 framing as checkpoint journals so a torn tail is detected and
// skipped rather than trusted.

// EventsDir is the subdirectory of a campaign directory holding the
// per-writer event journals.
const EventsDir = "events"

// eventsSuffix frames event journal file names: events/<writer>.jsonl.
const eventsSuffix = ".jsonl"

// EventType classifies one fleet event.
type EventType string

const (
	// EventWorkerJoin: a worker process entered the campaign; Detail is
	// its lease owner identity (host/pid/token).
	EventWorkerJoin EventType = "worker-join"
	// EventWorkerDrain: a worker observed the whole campaign complete
	// and exited cleanly.
	EventWorkerDrain EventType = "worker-drain"
	// EventWorkerStop: a worker was canceled (first SIGINT/SIGTERM) and
	// exited cleanly without observing the drain.
	EventWorkerStop EventType = "worker-stop"
	// EventWorkerFail: a worker exited on an error; Detail carries it.
	EventWorkerFail EventType = "worker-fail"
	// EventLeaseClaim: a worker acquired a shard's lease (Epoch carries
	// the fencing epoch it claimed).
	EventLeaseClaim EventType = "lease-claim"
	// EventLeaseRenewFailure: a heartbeat renewal failed transiently.
	EventLeaseRenewFailure EventType = "lease-renew-failure"
	// EventLeaseFence: a worker discovered it was deposed — another
	// owner holds the shard at a higher epoch — and stopped.
	EventLeaseFence EventType = "lease-fence"
	// EventOrphanTakeover: a claim that replaced a stale or corrupt
	// lease left by a dead (or frozen) owner; Detail names the deposed
	// owner when it was decodable.
	EventOrphanTakeover EventType = "orphan-takeover"
	// EventUnitDone: a worker durably journaled one unit (Key) into the
	// shard's journal at Epoch.
	EventUnitDone EventType = "unit-done"
	// EventShardComplete: the worker holding the shard journaled its
	// last pending unit.
	EventShardComplete EventType = "shard-complete"
	// EventUnitQuarantine: a worker quarantined a poison unit after
	// its attempt budget ran out (Key carries the unit key, Detail the
	// error).
	EventUnitQuarantine EventType = "unit-quarantine"
)

// WorkerScope is the Shard value of events that concern a whole worker
// rather than one shard (join, drain, stop, fail).
const WorkerScope = -1

// Event is one entry of the campaign event journal.
type Event struct {
	// Seq is the writer-local sequence number (1-based): unique per
	// writer, which makes (Time, Worker, Seq) a total order across the
	// merged fleet timeline.
	Seq uint64 `json:"seq"`
	// TimeUnixNano is the event instant on the writer's injected clock
	// (wall clock in production, a stepping fake clock in tests).
	TimeUnixNano int64 `json:"time_unix_nano"`
	// Type classifies the event.
	Type EventType `json:"type"`
	// Worker identifies the writer: the lease owner token of the worker
	// that wrote it.
	Worker string `json:"worker"`
	// Shard is the shard the event concerns, or WorkerScope (-1) for
	// worker-level events.
	Shard int `json:"shard"`
	// Epoch is the fencing epoch involved, when any (0 otherwise).
	Epoch uint64 `json:"epoch,omitempty"`
	// Key is the experiment-unit key involved, when any.
	Key string `json:"key,omitempty"`
	// Detail carries free-form context (deposed owner, error text).
	Detail string `json:"detail,omitempty"`
}

// validate bounds the fields a decoded (or about-to-be-encoded) event
// may carry; DecodeEvents treats a violation as corruption.
func (e Event) validate() error {
	switch {
	case e.Seq == 0:
		return fmt.Errorf("campaign: event seq 0 (sequences start at 1)")
	case e.Type == "":
		return fmt.Errorf("campaign: event with empty type")
	case e.Worker == "":
		return fmt.Errorf("campaign: event with empty worker")
	case e.Shard < WorkerScope:
		return fmt.Errorf("campaign: event shard %d out of range", e.Shard)
	}
	return nil
}

// EncodeEvent renders one event journal line in the shared CRC32
// framing.
func EncodeEvent(e Event) ([]byte, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	rec, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("campaign: encode event: %w", err)
	}
	return checkpoint.FrameLine(rec), nil
}

// DecodeEvents parses an event journal image tolerantly: the valid
// prefix is decoded, and the first torn, corrupt or out-of-range line
// ends it — everything after is counted as dropped, mirroring
// checkpoint.Decode. It never panics on any input.
func DecodeEvents(data []byte) (events []Event, dropped int) {
	events, _, dropped = decodeEventsPrefix(data)
	return events, dropped
}

// decodeEventsPrefix is DecodeEvents plus the byte length of the valid
// prefix, which OpenEventLog truncates back to before appending.
func decodeEventsPrefix(data []byte) (events []Event, valid int64, dropped int) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail: an append crashed before the newline
		}
		rec, ok := checkpoint.UnframeLine(data[off : off+nl])
		if !ok {
			break
		}
		var e Event
		dec := json.NewDecoder(bytes.NewReader(rec))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil || dec.More() || e.validate() != nil {
			break
		}
		events = append(events, e)
		off += nl + 1
	}
	if rest := data[off:]; len(rest) > 0 {
		dropped = bytes.Count(rest, []byte{'\n'})
		if rest[len(rest)-1] != '\n' {
			dropped++
		}
	}
	return events, int64(off), dropped
}

// MergeEvents unions several decoded event streams into the fleet
// timeline, sorted by (time, worker, seq) — deterministic regardless of
// file enumeration order, and causal per writer because each writer's
// sequence numbers increase with its clock readings.
func MergeEvents(streams ...[]Event) []Event {
	var all []Event
	for _, s := range streams {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.TimeUnixNano != b.TimeUnixNano {
			return a.TimeUnixNano < b.TimeUnixNano
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.Seq < b.Seq
	})
	return all
}

// ReadEvents loads and merges every event journal of a campaign
// directory into the deterministic fleet timeline. A campaign that never
// emitted events (no events/ directory) reads as an empty timeline.
func ReadEvents(dir string) ([]Event, error) {
	edir := filepath.Join(dir, EventsDir)
	entries, err := os.ReadDir(edir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: events %s: %w", edir, err)
	}
	var streams [][]Event
	for _, ent := range entries {
		if ent.IsDir() || filepath.Ext(ent.Name()) != eventsSuffix {
			continue
		}
		data, err := os.ReadFile(filepath.Join(edir, ent.Name()))
		if err != nil {
			return nil, fmt.Errorf("campaign: events %s: %w", ent.Name(), err)
		}
		events, _ := DecodeEvents(data)
		streams = append(streams, events)
	}
	return MergeEvents(streams...), nil
}

// EventLog is one writer's append-only event journal. All methods are
// safe for concurrent use and no-ops on a nil receiver, so emission can
// be wired unconditionally at zero cost when observability is off.
type EventLog struct {
	mu     sync.Mutex
	path   string
	worker string
	clock  obs.Clock
	// memlint:guard mu
	f *os.File
	// memlint:guard mu
	seq uint64
}

// OpenEventLog opens (or creates, durably) the event journal of one
// writer under dir/events/. The writer id doubles as the file stem and
// the Worker field of every emitted event; it must be non-empty and
// path-safe (no separators). A nil clock uses obs.WallClock. Appends
// resume after the existing valid prefix, with sequence numbers
// continuing past the highest already present.
func OpenEventLog(dir, worker string, clock obs.Clock) (*EventLog, error) {
	if worker == "" {
		return nil, fmt.Errorf("campaign: event log needs a worker id")
	}
	if worker != filepath.Base(worker) || worker == "." || worker == ".." {
		return nil, fmt.Errorf("campaign: event-log worker id %q is not path-safe", worker)
	}
	if clock == nil {
		clock = obs.WallClock
	}
	edir := filepath.Join(dir, EventsDir)
	if err := atomicio.MkdirAll(edir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: event log %s: %w", edir, err)
	}
	path := filepath.Join(edir, worker+eventsSuffix)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("campaign: event log %s: %w", path, err)
	}
	events, valid, _ := decodeEventsPrefix(data)
	var seq uint64
	for _, e := range events {
		if e.Seq > seq {
			seq = e.Seq
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: event log %s: %w", path, err)
	}
	// A torn or corrupt tail is truncated away exactly like a checkpoint
	// journal, so appends always extend a valid prefix.
	if int64(len(data)) > valid {
		terr := f.Truncate(valid)
		if terr == nil {
			terr = f.Sync()
		}
		if terr != nil {
			f.Close()
			return nil, fmt.Errorf("campaign: event log %s: %w", path, terr)
		}
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: event log %s: %w", path, err)
	}
	if err := atomicio.SyncDir(edir); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: event log %s: %w", path, err)
	}
	return &EventLog{path: path, f: f, worker: worker, clock: clock, seq: seq}, nil
}

// Worker reports the writer id ("" on nil).
func (l *EventLog) Worker() string {
	if l == nil {
		return ""
	}
	return l.worker
}

// Emit appends one event, stamped with the log's clock and the next
// sequence number, and fsyncs it. A nil log emits nothing.
func (l *EventLog) Emit(t EventType, shard int, epoch uint64, key, detail string) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("campaign: emit on closed event log %s", l.path)
	}
	line, err := EncodeEvent(Event{
		Seq:          l.seq + 1,
		TimeUnixNano: l.clock().UnixNano(),
		Type:         t,
		Worker:       l.worker,
		Shard:        shard,
		Epoch:        epoch,
		Key:          key,
		Detail:       detail,
	})
	if err != nil {
		return err
	}
	if _, err := l.f.Write(line); err != nil {
		return fmt.Errorf("campaign: event log %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("campaign: event log %s: %w", l.path, err)
	}
	l.seq++
	return nil
}

// Close releases the event journal file; emitted events stay durable.
// Closing a nil log is a no-op.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	if err != nil {
		return fmt.Errorf("campaign: event log %s: %w", l.path, err)
	}
	return nil
}
