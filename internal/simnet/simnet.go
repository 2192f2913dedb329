// Package simnet models the network side of the testbed: machines with
// their memory systems, the fabric linking them (InfiniBand / Omni-Path
// class), and message delivery as DMA streams through the receiving (and
// sending) machine's memory system.
//
// A message transfer is two coupled fluid flows: the sender NIC reads the
// data from the sender's memory, the receiver NIC stores it into the
// receiver's memory. The wire rate bounds both; the transfer completes
// when both memory paths have drained, which is the fluid equivalent of a
// rendezvous pipeline. The paper measures receive-side bandwidth (§IV-A1);
// with an idle sender the receive path is the bottleneck, exactly as on
// the real testbed.
package simnet

import (
	"errors"
	"fmt"
	"math"

	"memcontention/internal/engine"
	"memcontention/internal/hwloc"
	"memcontention/internal/memsys"
	"memcontention/internal/obs"
	"memcontention/internal/topology"
	"memcontention/internal/units"
)

// ErrMessageDropped reports a message lost in flight by fault injection.
// The MPI layer retries dropped messages when resilience is configured.
var ErrMessageDropped = errors.New("simnet: message dropped by fault injection")

// DownError reports a transfer endpoint that has crashed.
type DownError struct {
	// Machine is the crashed machine's id.
	Machine int
	// Since is the simulated time of the crash.
	Since float64
}

func (e *DownError) Error() string {
	return fmt.Sprintf("simnet: machine %d is down (crashed at t=%.6fs)", e.Machine, e.Since)
}

// TransferFault is the fault layer's verdict on one message.
type TransferFault struct {
	// Drop loses the message: no data moves and the delivery callback
	// reports ErrMessageDropped once the (faulty) latency has elapsed.
	Drop bool
	// ExtraLatency is added one-way latency in seconds (jitter included).
	ExtraLatency float64
	// WireFactor scales the link's wire rate for this message; 0 or 1
	// mean nominal.
	WireFactor float64
}

// FaultModel lets a fault injector perturb the fabric. Implementations
// must be deterministic in their own seeded state and the arguments so
// that a faulty simulation stays bit-for-bit reproducible.
type FaultModel interface {
	// MachineDown reports whether machine id is crashed at time at, and
	// since when.
	MachineDown(id int, at float64) (down bool, since float64)
	// TransferFault is consulted once per message at injection time.
	// xfer is the fabric's monotonically increasing transfer number.
	TransferFault(src, dst, xfer int, size, at float64) TransferFault
}

// Machine is one cluster node: a platform, its memory system and the flow
// manager simulating it.
type Machine struct {
	ID    int
	Sys   *memsys.System
	Flows *engine.Flows
	Topo  *hwloc.Topology
}

// NewMachine assembles a machine of memory system sys inside the
// simulation. Machines of the same platform and profile share one
// System (memcontention.NewCluster runs every cluster of a built-in
// platform on memsys.Builtin's; NewCustomCluster and netbench build one
// per simulation): a System holds no mutable state, and each machine's
// flow manager simulates its own flows over it. memsys.New validated
// the platform, so the machine's topology wraps it as it is.
func NewMachine(sim *engine.Sim, id int, sys *memsys.System) *Machine {
	flows := engine.NewFlows(sim, sys)
	flows.SetMachine(id)
	return &Machine{ID: id, Sys: sys, Flows: flows, Topo: hwloc.Wrap(sys.Platform())}
}

// Fabric is the interconnect between machines.
type Fabric struct {
	sim *engine.Sim
	// WireRate is the link speed in GB/s (EDR ≈ 12.1, HDR ≈ 23.5,
	// Omni-Path ≈ 11.9).
	WireRate float64
	// Latency is the one-way base latency in seconds.
	Latency float64

	machines map[int]*Machine
	nextXfer int
	// free heads the list of transfer objects that have reported to
	// their Recipient, linked through transfer.next, which DeliverAsync
	// reuses before it allocates.
	free *transfer
	// faults, when set, perturbs deliveries. Nil costs one comparison
	// per transfer.
	faults FaultModel
	// spans, when set, wraps every message in a "transfer" causal span
	// parented under Transfer.Parent (the MPI operation). Nil costs one
	// comparison per transfer.
	spans obs.SpanRecorder
}

// SetFaults installs a fault model on the fabric (nil removes it).
func (f *Fabric) SetFaults(fm FaultModel) { f.faults = fm }

// SetSpanRecorder installs a causal span recorder on the fabric (nil
// removes it).
func (f *Fabric) SetSpanRecorder(sr obs.SpanRecorder) { f.spans = sr }

// MachineDown reports whether the fault layer considers machine id crashed
// at the current simulated time (always false without a fault model).
func (f *Fabric) MachineDown(id int) (down bool, since float64) {
	if f.faults == nil {
		return false, 0
	}
	return f.faults.MachineDown(id, f.sim.Now())
}

// NewFabric creates a fabric. Rate must be positive; latency non-negative.
func NewFabric(sim *engine.Sim, wireRate, latency float64) (*Fabric, error) {
	if wireRate <= 0 || math.IsNaN(wireRate) {
		return nil, fmt.Errorf("simnet: wire rate must be positive, got %v", wireRate)
	}
	if latency < 0 || math.IsNaN(latency) {
		return nil, fmt.Errorf("simnet: latency must be non-negative, got %v", latency)
	}
	return &Fabric{sim: sim, WireRate: wireRate, Latency: latency, machines: make(map[int]*Machine)}, nil
}

// Attach registers a machine on the fabric.
func (f *Fabric) Attach(m *Machine) error {
	if _, dup := f.machines[m.ID]; dup {
		return fmt.Errorf("simnet: duplicate machine id %d", m.ID)
	}
	f.machines[m.ID] = m
	return nil
}

// Transfer describes one message movement between machines.
type Transfer struct {
	Src, Dst         *Machine
	SrcNode, DstNode topology.NodeID
	Size             units.ByteSize
	// Parent is the causal span this transfer belongs to (the MPI
	// operation that posted it; 0 for a root transfer). Only read when
	// the fabric has a span recorder.
	Parent obs.SpanID
}

// Result reports a completed transfer.
type Result struct {
	// Start and End are simulated times (seconds).
	Start, End float64
	// AvgRate is the end-to-end average bandwidth including latency.
	AvgRate units.Bandwidth
}

// Recipient receives the outcome of a transfer (DeliverAsync):
// Delivered runs at most once per transfer, in scheduler context. The
// MPI layer's message object implements it, so that reporting allocates
// nothing.
type Recipient interface {
	Delivered(res Result, err error)
}

// DeliverAsync performs a transfer and calls to.Delivered (in scheduler
// context) once the data has fully landed in the destination memory.
// Errors are reported through Delivered: a crashed endpoint yields a
// *DownError, a message lost by fault injection yields ErrMessageDropped
// (after the latency, when the loss would be noticed). A transfer whose
// flow a crash froze never completes, and Delivered is not called.
//
// A transfer lives in one object, which holds the latency event, both
// DMA flows, their drain events and the count of flows still draining.
// The fabric takes the object back just before it calls Delivered, so
// Delivered may call DeliverAsync again, and reuses it for a later
// transfer: once the fabric has as many objects as it ever had transfers
// in flight, a call allocates nothing, with spans off. A transfer frozen
// by a crash keeps its object.
func (f *Fabric) DeliverAsync(t Transfer, to Recipient) {
	x := f.free
	if x != nil {
		f.free = x.next
		*x = transfer{fabric: f, t: t, to: to}
	} else {
		x = &transfer{fabric: f, t: t, to: to}
	}
	x.events[0].Bind(f.sim, x)
	x.events[1].Bind(f.sim, x)
	if x.err = f.check(t); x.err != nil {
		x.events[0].Schedule(f.sim.Now())
		return
	}
	x.start = f.sim.Now()
	f.nextXfer++
	// The transfer span covers latency, faults and both DMA drains; the
	// report closes it on every path, successful or not.
	if f.spans != nil {
		x.span = f.spans.BeginSpan(t.Parent,
			fmt.Sprintf("xfer m%d:n%d→m%d:n%d", t.Src.ID, t.SrcNode, t.Dst.ID, t.DstNode),
			"transfer", x.start, obs.SpanAttrs{Machine: t.Src.ID, Rank: -1, Node: -1, Stream: "comm"})
	}
	latency := f.Latency
	x.wire = f.WireRate
	if f.faults != nil {
		for _, m := range [2]*Machine{t.Src, t.Dst} {
			if down, since := f.faults.MachineDown(m.ID, x.start); down {
				x.err = &DownError{Machine: m.ID, Since: since}
				x.events[0].Schedule(x.start)
				return
			}
		}
		fault := f.faults.TransferFault(t.Src.ID, t.Dst.ID, f.nextXfer, float64(t.Size.Bytes()), x.start)
		if fault.ExtraLatency > 0 {
			latency += fault.ExtraLatency
		}
		if fault.WireFactor > 0 {
			x.wire *= fault.WireFactor
		}
		if fault.Drop {
			x.err = ErrMessageDropped
		}
	}
	x.events[0].Schedule(x.start + latency)
}

// transfer is one DeliverAsync in flight. It is the action of its own
// events: events[0] first fires after the latency and lands the data
// (starts both DMA flows) or reports the failure in err; once fired it is
// the source flow's drain event, and events[1] the destination flow's.
// The transfer completes at the second drain.
type transfer struct {
	fabric *Fabric
	t      Transfer
	to     Recipient
	start  float64
	// wire is the wire rate bounding both DMA flows; the memory systems
	// may grant less.
	wire float64
	span obs.SpanID
	// err, when set, is reported when events[0] fires, instead of
	// landing the data.
	err error
	// left counts the DMA flows still draining: 0 until the data lands.
	left     int
	events   [2]engine.Timer
	src, dst engine.Handle
	// next links the fabric's free transfer objects.
	next *transfer
}

// Act runs the transfer's event that has fired.
func (x *transfer) Act() {
	switch {
	case x.err != nil:
		x.report(Result{Start: x.start}, x.err)
	case x.left == 0:
		x.land()
	default:
		x.left--
		if x.left > 0 {
			return
		}
		end := x.fabric.sim.Now()
		res := Result{Start: x.start, End: end}
		if end > x.start {
			res.AvgRate = units.RateFor(x.t.Size, units.Seconds(end-x.start))
		}
		x.report(res, nil)
	}
}

// land starts the sender-side read stream and the receiver-side write
// stream (KindComm on each machine's system), each bounded by the wire.
func (x *transfer) land() {
	t := &x.t
	x.left = 2
	t.Src.Flows.StartInto(&x.src, memsys.Stream{
		Kind:   memsys.KindComm,
		Node:   t.SrcNode,
		Demand: math.Min(x.wire, t.Src.Sys.CommDemand(t.SrcNode)),
	}, t.Size, x.span)
	t.Dst.Flows.StartInto(&x.dst, memsys.Stream{
		Kind:   memsys.KindComm,
		Node:   t.DstNode,
		Demand: math.Min(x.wire, t.Dst.Sys.CommDemand(t.DstNode)),
	}, t.Size, x.span)
	x.src.Then(&x.events[0])
	x.dst.Then(&x.events[1])
}

// report closes the transfer span, if any, gives the transfer object
// back to its fabric and hands the outcome to the recipient. Both events
// have fired and both flows have left their managers, so nothing else
// holds the object; report does not touch it after giving it back, since
// Delivered may reuse it at once.
func (x *transfer) report(res Result, err error) {
	f, to := x.fabric, x.to
	if x.span != 0 {
		f.spans.EndSpan(x.span, f.sim.Now())
	}
	x.next, f.free = f.free, x
	to.Delivered(res, err)
}

func (f *Fabric) check(t Transfer) error {
	switch {
	case t.Src == nil || t.Dst == nil:
		return fmt.Errorf("simnet: transfer with nil machine")
	case t.Src == t.Dst:
		return fmt.Errorf("simnet: loopback transfer on machine %d (use memcpy, not the fabric)", t.Src.ID)
	case t.Size <= 0:
		return fmt.Errorf("simnet: non-positive transfer size %d", t.Size)
	case int(t.SrcNode) < 0 || int(t.SrcNode) >= t.Src.Sys.Platform().NNodes():
		return fmt.Errorf("simnet: source node %d out of range", t.SrcNode)
	case int(t.DstNode) < 0 || int(t.DstNode) >= t.Dst.Sys.Platform().NNodes():
		return fmt.Errorf("simnet: destination node %d out of range", t.DstNode)
	}
	if _, ok := f.machines[t.Src.ID]; !ok {
		return fmt.Errorf("simnet: source machine %d not attached", t.Src.ID)
	}
	if _, ok := f.machines[t.Dst.ID]; !ok {
		return fmt.Errorf("simnet: destination machine %d not attached", t.Dst.ID)
	}
	return nil
}

// WireRateFor returns a plausible wire rate (GB/s) for a network
// technology, used when assembling clusters from Table I platforms.
func WireRateFor(tech topology.NetworkTech, pcieGen int) float64 {
	switch tech {
	case topology.OmniPath:
		return 11.9
	case topology.InfiniBand:
		if pcieGen >= 4 {
			return 23.5 // HDR
		}
		return 12.1 // EDR
	default:
		return 12.1
	}
}
