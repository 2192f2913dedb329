package faults

import (
	"fmt"

	"memcontention/internal/engine"
	"memcontention/internal/memsys"
	"memcontention/internal/obs"
	"memcontention/internal/rng"
	"memcontention/internal/simnet"
)

// Marker receives fault timeline annotations; trace.Recorder implements
// it, so a cluster's trace also carries the fault events.
type Marker interface {
	FaultAt(at float64, label string)
}

// machineState aggregates the active machine-scoped faults of one node.
type machineState struct {
	computeFactor float64 // product of active core-slowdown factors
	nicStalls     int     // active nic-stall count
	crashed       bool
	crashedAt     float64
}

// injectorInstruments are the fault layer's telemetry hooks; nil
// instruments (no registry) record nothing.
type injectorInstruments struct {
	applied  *obs.Counter
	cleared  *obs.Counter
	dropped  *obs.Counter
	delayed  *obs.Counter
	crashes  *obs.Counter
	active   *obs.Gauge
	wire     *obs.Gauge
	extraLat *obs.Gauge
}

// Injector applies a Plan to a running simulation. Create one with New,
// then Arm it on the cluster's engine, fabric and machines before Run.
type Injector struct {
	plan     *Plan
	sim      *engine.Sim
	machines map[int]*machineState
	flows    map[int]*engine.Flows

	// events is the plan's event list in firing order (Plan.Sorted), and
	// active marks the events currently in effect, by position in it.
	events []Event
	active []bool

	// link-level aggregates, recomputed on every (de)activation.
	wireFactor   float64
	extraLatency float64
	jitterRel    float64
	dropProb     float64
	delayProb    float64
	delayExtra   float64

	// seeded per-message decision streams, consumed in transfer order.
	rngDrop   *rng.Stream
	rngDelay  *rng.Stream
	rngJitter *rng.Stream

	marker Marker
	m      injectorInstruments
}

// New validates the plan and builds an injector for it.
func New(plan *Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	events := plan.Sorted()
	return &Injector{
		plan:       plan,
		machines:   make(map[int]*machineState),
		flows:      make(map[int]*engine.Flows),
		events:     events,
		active:     make([]bool, len(events)),
		wireFactor: 1,
		rngDrop:    rng.New(plan.Seed, "faults/drop"),
		rngDelay:   rng.New(plan.Seed, "faults/delay"),
		rngJitter:  rng.New(plan.Seed, "faults/jitter"),
	}, nil
}

// Arm installs the injector: it hooks the fabric, installs a rate limiter
// on every machine's flow manager, registers its instruments in reg (nil
// disables them) and schedules every plan event. marker (nil allowed)
// receives one annotation per fault activation/deactivation.
func (in *Injector) Arm(sim *engine.Sim, fabric *simnet.Fabric, machines []*simnet.Machine, reg *obs.Registry, marker Marker) error {
	if in.sim != nil {
		return fmt.Errorf("faults: injector already armed")
	}
	known := make(map[int]bool, len(machines))
	for _, m := range machines {
		known[m.ID] = true
	}
	for i, ev := range in.plan.Events {
		if machineScoped(ev.Kind) && !known[ev.Machine] {
			return fmt.Errorf("faults: event %d (%s) targets unknown machine %d (cluster has %d machines)",
				i, ev.Kind, ev.Machine, len(machines))
		}
	}
	in.sim = sim
	in.marker = marker
	in.m = injectorInstruments{
		applied:  reg.Counter("memcontention_faults_applied_total", "Fault events activated.", nil),
		cleared:  reg.Counter("memcontention_faults_cleared_total", "Fault events deactivated (duration elapsed).", nil),
		dropped:  reg.Counter("memcontention_faults_messages_dropped_total", "Messages lost by fault injection.", nil),
		delayed:  reg.Counter("memcontention_faults_messages_delayed_total", "Messages delayed by fault injection.", nil),
		crashes:  reg.Counter("memcontention_faults_node_crashes_total", "Machines crashed by fault injection.", nil),
		active:   reg.Gauge("memcontention_faults_active", "Fault events currently in effect.", nil),
		wire:     reg.Gauge("memcontention_faults_wire_factor_ratio", "Current fabric wire-rate multiplier.", nil),
		extraLat: reg.Gauge("memcontention_faults_extra_latency_seconds", "Current added one-way latency.", nil),
	}
	in.m.wire.Set(1)
	fabric.SetFaults(in)
	for _, m := range machines {
		in.machines[m.ID] = &machineState{computeFactor: 1}
		m.Flows.SetRateLimiter(in.limiterFor(m.ID))
		in.flows[m.ID] = m.Flows
	}
	for i, ev := range in.events {
		i, ev := i, ev
		sim.At(ev.At, func() { in.activate(i, ev) })
		if ev.Duration > 0 && ev.Kind != NodeCrash {
			sim.At(ev.At+ev.Duration, func() { in.deactivate(i, ev) })
		}
	}
	return nil
}

// limiterFor builds the per-machine rate limiter capping flow rates while
// the machine is stalled, slowed or crashed.
func (in *Injector) limiterFor(id int) engine.RateLimiter {
	ms := in.machines[id]
	return func(st memsys.Stream, rate float64) float64 {
		if ms.crashed {
			return 0
		}
		switch st.Kind {
		case memsys.KindComm:
			if ms.nicStalls > 0 {
				return 0
			}
		case memsys.KindCompute:
			if ms.computeFactor < 1 {
				return rate * ms.computeFactor
			}
		}
		return rate
	}
}

// activate puts event i into effect.
func (in *Injector) activate(i int, ev Event) {
	in.active[i] = true
	if ev.Kind == NodeCrash {
		ms := in.machines[ev.Machine]
		if !ms.crashed {
			ms.crashed = true
			ms.crashedAt = in.sim.Now()
			in.m.crashes.Inc()
		}
	}
	in.m.applied.Inc()
	in.refresh(ev)
	if in.marker != nil {
		in.marker.FaultAt(in.sim.Now(), "fault-on: "+ev.Label())
	}
}

// deactivate ends event i.
func (in *Injector) deactivate(i int, ev Event) {
	in.active[i] = false
	in.m.cleared.Inc()
	in.refresh(ev)
	if in.marker != nil {
		in.marker.FaultAt(in.sim.Now(), "fault-off: "+ev.Label())
	}
}

// refresh recomputes every aggregate from the active event set and
// re-solves flow rates where the change can matter. changed is the event
// that toggled. The active events are aggregated in firing order, so
// that every product and sum rounds the same way in every run.
func (in *Injector) refresh(changed Event) {
	in.wireFactor = 1
	in.extraLatency = 0
	in.jitterRel = 0
	in.dropProb = 0
	in.delayProb = 0
	in.delayExtra = 0
	for _, ms := range in.machines {
		ms.computeFactor = 1
		ms.nicStalls = 0
	}
	keepP := 1.0 // probability a message survives every active drop window
	nActive := 0
	for i, ev := range in.events {
		if !in.active[i] {
			continue
		}
		nActive++
		switch ev.Kind {
		case LinkDegrade:
			in.wireFactor *= ev.Factor
		case LinkLatency:
			in.extraLatency += ev.Extra
			if ev.Jitter > in.jitterRel {
				in.jitterRel = ev.Jitter
			}
		case MsgDrop:
			keepP *= 1 - ev.probability()
		case MsgDelay:
			if p := ev.probability(); p > in.delayProb {
				in.delayProb = p
			}
			in.delayExtra += ev.Extra
		case NICStall:
			in.machines[ev.Machine].nicStalls++
		case CoreSlowdown:
			in.machines[ev.Machine].computeFactor *= ev.Factor
		}
	}
	in.dropProb = 1 - keepP
	in.m.active.Set(float64(nActive))
	in.m.wire.Set(in.wireFactor)
	in.m.extraLat.Set(in.extraLatency)
	// Machine-level faults change rates mid-flight; re-solve the
	// affected flow managers so progress is banked at the old rates.
	if machineScoped(changed.Kind) {
		if fl := in.flows[changed.Machine]; fl != nil {
			fl.Refresh()
		}
	}
}

// MachineDown implements simnet.FaultModel.
func (in *Injector) MachineDown(id int, at float64) (bool, float64) {
	ms := in.machines[id]
	if ms == nil || !ms.crashed {
		return false, 0
	}
	return true, ms.crashedAt
}

// TransferFault implements simnet.FaultModel: the per-message verdict,
// consumed in transfer order so it is deterministic for a given plan.
func (in *Injector) TransferFault(src, dst, xfer int, size, at float64) simnet.TransferFault {
	tf := simnet.TransferFault{WireFactor: in.wireFactor}
	extra := in.extraLatency
	if extra > 0 && in.jitterRel > 0 {
		extra *= in.rngJitter.Jitter(in.jitterRel)
	}
	if in.delayProb > 0 && in.rngDelay.Float64() < in.delayProb {
		extra += in.delayExtra
		in.m.delayed.Inc()
	}
	tf.ExtraLatency = extra
	if in.dropProb > 0 && in.rngDrop.Float64() < in.dropProb {
		tf.Drop = true
		in.m.dropped.Inc()
	}
	return tf
}
