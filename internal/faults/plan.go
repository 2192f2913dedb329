// Package faults is the deterministic fault-injection subsystem of the
// simulated cluster: a declarative, JSON-loadable Plan of timed fault
// events — link degradation, added latency and jitter, NIC stalls, core
// slowdowns, node crashes, message drops and delays — applied through the
// engine, simnet and MPI hooks.
//
// Everything is seeded: per-message decisions (drop? delay? how much
// jitter?) come from rng streams keyed by the plan seed, so the same seed
// and the same plan produce bit-for-bit identical runs. A nil plan
// installs no hooks at all and costs nothing on the hot path, mirroring
// the nil-registry guarantee of the telemetry subsystem.
package faults

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Kind names a fault event type.
type Kind string

// Fault kinds.
const (
	// LinkDegrade multiplies the fabric wire rate by Factor (all links).
	LinkDegrade Kind = "link-degrade"
	// LinkLatency adds Extra seconds of one-way latency to every
	// message, with optional per-message relative Jitter.
	LinkLatency Kind = "link-latency"
	// NICStall freezes the NIC DMA streams of one machine: its comm
	// flows move no data for the event's duration.
	NICStall Kind = "nic-stall"
	// CoreSlowdown multiplies the compute stream rates of one machine
	// by Factor (a straggler node).
	CoreSlowdown Kind = "core-slowdown"
	// NodeCrash kills one machine permanently: its flows freeze and
	// the fabric refuses transfers involving it.
	NodeCrash Kind = "node-crash"
	// MsgDrop loses each message with Probability while active.
	MsgDrop Kind = "msg-drop"
	// MsgDelay adds Extra seconds to each message with Probability
	// while active.
	MsgDelay Kind = "msg-delay"
)

// kindKnown reports whether k is one of the declared kinds.
func kindKnown(k Kind) bool {
	switch k {
	case LinkDegrade, LinkLatency, NICStall, CoreSlowdown, NodeCrash, MsgDrop, MsgDelay:
		return true
	}
	return false
}

// machineScoped reports whether the kind targets a single machine.
func machineScoped(k Kind) bool {
	switch k {
	case NICStall, CoreSlowdown, NodeCrash:
		return true
	}
	return false
}

// Event is one timed fault. Which fields matter depends on Kind; unused
// fields must stay zero.
type Event struct {
	// At is the simulated activation time in seconds.
	At float64 `json:"at"`
	// Kind selects the fault type.
	Kind Kind `json:"kind"`
	// Machine targets one machine for nic-stall, core-slowdown and
	// node-crash; ignored by link- and message-level kinds.
	Machine int `json:"machine,omitempty"`
	// Factor is the rate multiplier in (0, 1] for link-degrade and
	// core-slowdown.
	Factor float64 `json:"factor,omitempty"`
	// Extra is the added latency in seconds for link-latency and
	// msg-delay.
	Extra float64 `json:"extra_latency,omitempty"`
	// Jitter is the relative std-dev of per-message jitter applied to
	// Extra (link-latency only).
	Jitter float64 `json:"jitter,omitempty"`
	// Probability is the per-message probability in [0, 1] for
	// msg-drop and msg-delay (0 means 1: always).
	Probability float64 `json:"probability,omitempty"`
	// Duration is how long the fault stays active, in seconds;
	// 0 means permanent (node-crash is always permanent).
	Duration float64 `json:"duration,omitempty"`
}

// Label renders a short human-readable description for traces.
func (e Event) Label() string {
	switch e.Kind {
	case LinkDegrade:
		return fmt.Sprintf("%s factor=%g", e.Kind, e.Factor)
	case LinkLatency:
		return fmt.Sprintf("%s extra=%gs jitter=%g", e.Kind, e.Extra, e.Jitter)
	case NICStall, NodeCrash:
		return fmt.Sprintf("%s machine=%d", e.Kind, e.Machine)
	case CoreSlowdown:
		return fmt.Sprintf("%s machine=%d factor=%g", e.Kind, e.Machine, e.Factor)
	case MsgDrop:
		return fmt.Sprintf("%s p=%g", e.Kind, e.probability())
	case MsgDelay:
		return fmt.Sprintf("%s p=%g extra=%gs", e.Kind, e.probability(), e.Extra)
	}
	return string(e.Kind)
}

// probability reports the effective per-message probability (0 means 1).
func (e Event) probability() float64 {
	if e.Probability == 0 {
		return 1
	}
	return e.Probability
}

// validate checks one event. i is its index for error messages.
func (e Event) validate(i int) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("faults: event %d (%s): %s", i, e.Kind, fmt.Sprintf(format, args...))
	}
	if !kindKnown(e.Kind) {
		return fmt.Errorf("faults: event %d: unknown kind %q", i, e.Kind)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"at", e.At}, {"factor", e.Factor}, {"extra_latency", e.Extra},
		{"jitter", e.Jitter}, {"probability", e.Probability}, {"duration", e.Duration},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fail("%s must be finite and non-negative, got %v", f.name, f.v)
		}
	}
	if e.Machine < 0 {
		return fail("machine must be non-negative, got %d", e.Machine)
	}
	switch e.Kind {
	case LinkDegrade, CoreSlowdown:
		if e.Factor <= 0 || e.Factor > 1 {
			return fail("factor must be in (0,1], got %v", e.Factor)
		}
	case LinkLatency:
		if e.Extra <= 0 {
			return fail("extra_latency must be positive, got %v", e.Extra)
		}
		if e.Jitter > 1 {
			return fail("jitter must be in [0,1], got %v", e.Jitter)
		}
	case MsgDrop, MsgDelay:
		if e.Probability > 1 {
			return fail("probability must be in [0,1], got %v", e.Probability)
		}
		if e.Kind == MsgDelay && e.Extra <= 0 {
			return fail("extra_latency must be positive, got %v", e.Extra)
		}
	case NodeCrash:
		if e.Duration != 0 {
			return fail("node crashes are permanent; duration must be 0")
		}
	}
	return nil
}

// Plan is a declarative fault scenario: a seed for all per-message
// randomness and a list of timed events.
type Plan struct {
	// Seed keys the per-message random decisions (drop, delay, jitter).
	Seed uint64 `json:"seed"`
	// Events is the fault timeline; order does not matter (events are
	// applied at their At times).
	Events []Event `json:"events"`
}

// Validate checks every event of the plan. A plan with no events is valid
// (and injects nothing).
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		if err := e.validate(i); err != nil {
			return err
		}
	}
	return nil
}

// MaxMachine reports the highest machine id referenced by machine-scoped
// events (-1 when none), so callers can reject plans that target machines
// the cluster does not have.
func (p *Plan) MaxMachine() int {
	if p == nil {
		return -1
	}
	maxID := -1
	for _, e := range p.Events {
		if machineScoped(e.Kind) && e.Machine > maxID {
			maxID = e.Machine
		}
	}
	return maxID
}

// Sorted returns the events ordered by (At, declaration order). The plan
// itself is not modified.
func (p *Plan) Sorted() []Event {
	if p == nil {
		return nil
	}
	out := append([]Event(nil), p.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Parse decodes and validates a plan from JSON.
func Parse(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("faults: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads and validates a plan file (JSON, the Plan schema).
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: load plan: %w", err)
	}
	p, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("faults: plan %s: %w", path, err)
	}
	return p, nil
}
