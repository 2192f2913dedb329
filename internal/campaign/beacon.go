package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"memcontention/internal/atomicio"
	"memcontention/internal/obs"
)

// This file is the worker status beacon: a small durable JSON document
// each worker of a campaign rewrites periodically into
// <campaign-dir>/beacons/<worker>.json. Where the lease files answer
// "who owns shard N right now", a beacon answers "what is worker W
// doing": which leases it holds and at which fencing epochs, how many
// units it has journaled, its recent throughput, and a full snapshot of
// its telemetry registry (the stable-JSON exporter, so a beacon and a
// /metrics.json scrape of the same registry are byte-identical).
// Beacons are written via atomicio on an injectable obs.Clock, so tests
// drive them deterministically and a reader never sees a torn beacon.
//
// A worker that stops rewriting its beacon has crashed or hung — unless
// its final beacon says otherwise: workers write a last beacon with
// State drained/stopped/failed on the way out, which is what lets an
// operator (and memtop) tell a clean exit from a corpse.

// BeaconsDir is the subdirectory of a campaign directory holding the
// per-worker status beacons.
const BeaconsDir = "beacons"

// Worker beacon states. Running beacons go stale when their age exceeds
// the lease liveness bound; terminal states are trustworthy forever.
const (
	// WorkerRunning: the worker was alive at UpdatedUnixNano.
	WorkerRunning = "running"
	// WorkerDrained: the worker observed the whole campaign complete and
	// exited cleanly.
	WorkerDrained = "drained"
	// WorkerStopped: the worker exited cleanly without draining
	// (cancellation — first SIGINT/SIGTERM — or nothing left to claim).
	WorkerStopped = "stopped"
	// WorkerFailed: the worker exited on an error (Detail in the event
	// journal says which unit or lease operation failed).
	WorkerFailed = "failed"
)

// ShardProgress is one shard's completion state: a worker's view of the
// shards it touched (in its beacon) or the fleet's view of every shard
// (in memtop's report).
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

// WorkerStatus is one worker's beacon document.
type WorkerStatus struct {
	// Worker is the writer id (the lease owner token for memworker
	// processes); it doubles as the beacon file stem.
	Worker string `json:"worker"`
	// Host and PID locate the process for operators.
	Host string `json:"host,omitempty"`
	PID  int    `json:"pid,omitempty"`
	// State is one of WorkerRunning, WorkerDrained, WorkerStopped,
	// WorkerFailed.
	State string `json:"state"`
	// StartedUnixNano and UpdatedUnixNano bracket the worker's life on
	// its injected clock; staleness is judged against Updated.
	StartedUnixNano int64 `json:"started_unix_nano"`
	UpdatedUnixNano int64 `json:"updated_unix_nano"`
	// Units counts the experiment units this worker journaled.
	Units int `json:"units"`
	// Fenced counts leases this worker lost to a higher epoch.
	Fenced int `json:"fenced"`
	// RenewErrors counts transient heartbeat-renewal failures.
	RenewErrors int `json:"renew_errors"`
	// UnitsPerSec is the worker's recent throughput (a rolling-window
	// rate from obs.Rolling; 0 when idle for a full window).
	UnitsPerSec float64 `json:"units_per_sec"`
	// Leases lists the leases currently held, sorted by shard.
	Leases []LeaseHolding `json:"leases,omitempty"`
	// Shards is the worker's last view of per-shard completion (the
	// shards it has touched), sorted by shard.
	Shards []ShardProgress `json:"shards,omitempty"`
	// Registry is the stable-JSON snapshot of the worker's telemetry
	// registry (absent when the worker runs without one).
	Registry json.RawMessage `json:"registry,omitempty"`
}

func (s WorkerStatus) validate() error {
	switch {
	case s.Worker == "":
		return fmt.Errorf("campaign: beacon with empty worker id")
	case s.Worker != filepath.Base(s.Worker) || s.Worker == "." || s.Worker == "..":
		return fmt.Errorf("campaign: beacon worker id %q is not path-safe", s.Worker)
	case s.State != WorkerRunning && s.State != WorkerDrained && s.State != WorkerStopped && s.State != WorkerFailed:
		return fmt.Errorf("campaign: beacon state %q unknown", s.State)
	}
	return nil
}

// BeaconPath returns the beacon file of one worker under dir.
func BeaconPath(dir, worker string) string {
	return filepath.Join(dir, BeaconsDir, worker+".json")
}

// EncodeBeacon renders the beacon document: indented stable JSON plus a
// trailing newline. The bytes depend only on the status fields (the
// registry snapshot is itself byte-deterministic), so two workers in the
// same state beacon identically.
func EncodeBeacon(s WorkerStatus) ([]byte, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("campaign: encode beacon %s: %w", s.Worker, err)
	}
	return append(data, '\n'), nil
}

// DecodeBeacon parses a beacon document strictly (unknown fields,
// trailing content and invalid states are rejected — beacons are written
// atomically, so malformed content means something else went wrong).
func DecodeBeacon(data []byte) (WorkerStatus, error) {
	var s WorkerStatus
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return WorkerStatus{}, fmt.Errorf("campaign: decode beacon: %w", err)
	}
	if dec.More() {
		return WorkerStatus{}, fmt.Errorf("campaign: beacon has trailing content")
	}
	if err := s.validate(); err != nil {
		return WorkerStatus{}, err
	}
	return s, nil
}

// WriteBeacon durably (re)writes one worker's beacon: atomic temp +
// fsync + rename, creating beacons/ on first use, so readers always see
// a complete document.
func WriteBeacon(dir string, s WorkerStatus) error {
	data, err := EncodeBeacon(s)
	if err != nil {
		return err
	}
	bdir := filepath.Join(dir, BeaconsDir)
	if err := atomicio.MkdirAll(bdir, 0o755); err != nil {
		return fmt.Errorf("campaign: beacons %s: %w", bdir, err)
	}
	if err := atomicio.WriteFile(BeaconPath(dir, s.Worker), data, 0o644); err != nil {
		return fmt.Errorf("campaign: beacon %s: %w", s.Worker, err)
	}
	return nil
}

// ReadBeacons loads every beacon of a campaign directory, sorted by
// worker id. A campaign without beacons (no beacons/ directory) reads as
// empty; an individual beacon that fails to decode is an error — they
// are written atomically, so a torn one means real corruption.
func ReadBeacons(dir string) ([]WorkerStatus, error) {
	bdir := filepath.Join(dir, BeaconsDir)
	entries, err := os.ReadDir(bdir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: beacons %s: %w", bdir, err)
	}
	var out []WorkerStatus
	for _, ent := range entries {
		if ent.IsDir() || filepath.Ext(ent.Name()) != ".json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(bdir, ent.Name()))
		if err != nil {
			return nil, fmt.Errorf("campaign: beacon %s: %w", ent.Name(), err)
		}
		s, err := DecodeBeacon(data)
		if err != nil {
			return nil, fmt.Errorf("campaign: beacon %s: %w", ent.Name(), err)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out, nil
}

// RegistrySnapshot renders a registry as its stable-JSON document for
// embedding in a beacon (nil both on a nil registry and on an empty
// one, keeping idle beacons small).
func RegistrySnapshot(r *obs.Registry) json.RawMessage {
	if r == nil || r.Len() == 0 {
		return nil
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return nil
	}
	return json.RawMessage(bytes.TrimRight(buf.Bytes(), "\n"))
}
