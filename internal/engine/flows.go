package engine

import (
	"fmt"
	"math"
	"slices"

	"memcontention/internal/memsys"
	"memcontention/internal/obs"
	"memcontention/internal/units"
)

// FlowObserver receives flow lifecycle notifications, in simulated-time
// order. Implementations must not mutate the flow manager. The machine
// argument is the flow manager's machine id (SetMachine): flow ids are
// only unique per manager, so observers shared across a cluster key
// flows by (machine, id).
type FlowObserver interface {
	// FlowStarted fires when a transfer begins.
	FlowStarted(machine, id int, stream memsys.Stream, bytes float64, at float64)
	// FlowFinished fires when a transfer drains.
	FlowFinished(machine, id int, at float64, avgRate float64)
	// RatesResolved fires after every re-solve with the rates actually
	// applied to the flows — that is, after any RateLimiter has rescaled
	// the solver's grants — keyed by flow id in GB/s. A machine is
	// re-solved at most once per instant and change of its active set:
	// the call reports the rates after the instant's last start or
	// completion on it, and may come after other events of that instant.
	RatesResolved(machine int, at float64, rates map[int]float64)
}

// Flows manages fluid data transfers over a memory system. All active
// transfers progress simultaneously at the rates the memsys solver grants
// them; rates are re-solved whenever transfers start or complete, once
// per machine per instant, in unchanged event order. A start, a
// completion or a Refresh integrates and updates the active set, and
// reserves the sequence number of its completion event; the simulation
// re-solves the manager before it fires any event that the completion
// could precede, before time moves on, and before any rate is read
// (Sim.flush). The re-solves this saves would run at zero elapsed time,
// move no bytes, and have their completion event re-queued before it
// fires.
type Flows struct {
	sim *Sim
	sys *memsys.System
	// active holds the in-progress transfers in ascending id order: ids
	// only grow, so a start appends and a completion compacts in place.
	// streams holds their streams, position for position, kept the same
	// way, so a re-solve passes it to the solver as it is.
	active  []*Handle
	streams []memsys.Stream
	nextID  int
	// completion is the next-completion event, which calls onCompletion.
	// A change takes it out of the queue and a re-solve queues it again
	// at seq, the sequence number the last change reserved, so
	// scheduling allocates nothing.
	completion Timer
	seq        int64
	// pending is set while the manager waits in the simulation's list of
	// deferred re-solves; nextPending links that list.
	pending     bool
	nextPending *Flows
	// observer, when set, is notified of flow lifecycle events.
	observer FlowObserver
	// machine is the id reported to the observer and span recorder
	// (SetMachine; 0 for single-machine simulations).
	machine int
	// spans is the observer when it also records spans: it receives
	// one causal span per flow, attributed with the stream's kind, node
	// and traversed links. Nil costs one comparison per flow.
	spans obs.SpanRecorder
	// limiter, when set, caps each stream's solved rate (fault
	// injection: NIC stalls, core slowdowns). Nil costs nothing.
	limiter RateLimiter
	// m holds the optional instruments; nil instruments record nothing.
	m flowInstruments
	// rates is solve's scratch, reused across re-solves: the active
	// flows' solved rates, position for position.
	rates []float64
}

// SetObserver installs a flow observer (nil removes it). An observer
// that also implements obs.SpanRecorder, such as trace.Recorder, records
// causal spans too: every flow started afterwards opens a "flow" span
// and closes it on completion. Re-solves still pending are made first,
// so they report to the observer that was installed when they were due.
func (f *Flows) SetObserver(o FlowObserver) {
	f.sim.flush()
	f.observer = o
	f.spans, _ = o.(obs.SpanRecorder)
}

// SetMachine sets the machine id reported with every observer and span
// notification. simnet.NewMachine calls it; standalone flow managers
// default to machine 0.
func (f *Flows) SetMachine(id int) { f.machine = id }

// Machine reports the flow manager's machine id.
func (f *Flows) Machine() int { return f.machine }

// RateLimiter rescales a stream's solved rate: it receives the stream and
// the solver-granted rate (GB/s) and returns the rate actually applied
// (0 freezes the stream). It must be deterministic in (stream, rate, sim
// time) for the simulation to stay reproducible.
type RateLimiter func(st memsys.Stream, rate float64) float64

// SetRateLimiter installs a rate limiter (nil removes it, restoring the
// solver-granted rates). Installing or changing a limiter only takes
// effect at the next re-solve; call Refresh to apply it mid-flight.
// Re-solves still pending are made first, with the limiter they were due
// under. The limiter runs when the re-solve is made, at the same
// simulated instant as the change that asked for it; a limiter whose
// state changes must Refresh the manager at the same time, as fault
// injection does.
func (f *Flows) SetRateLimiter(l RateLimiter) {
	f.sim.flush()
	f.limiter = l
}

// Refresh integrates all active flows to the current time and has their
// rates re-solved. Fault injection calls it when conditions change
// mid-flight (a stall begins or ends, a slowdown toggles) so progress
// before the change is banked at the old rates and the remainder runs at
// the new ones. With no active flows it is a no-op.
func (f *Flows) Refresh() {
	if len(f.active) == 0 {
		return
	}
	f.integrate()
	f.sim.deferResolve(f)
}

// flowInstruments are the flow manager's telemetry hooks.
type flowInstruments struct {
	started       *obs.Counter
	finished      *obs.Counter
	rateResolves  *obs.Counter
	solverStreams *obs.Counter
	activeFlows   *obs.Gauge
	avgRate       *obs.Histogram
}

// SetRegistry registers the flow manager's instruments in r and starts
// recording into them. A nil registry detaches. Several flow managers may
// share one registry (the series aggregate across machines).
func (f *Flows) SetRegistry(r *obs.Registry) {
	f.m = flowInstruments{
		started:       r.Counter("memcontention_engine_flows_started_total", "Transfers started by the flow manager.", nil),
		finished:      r.Counter("memcontention_engine_flows_finished_total", "Transfers drained to completion.", nil),
		rateResolves:  r.Counter("memcontention_engine_rate_resolves_total", "Steady-state rate re-solves.", nil),
		solverStreams: r.Counter("memcontention_engine_solver_streams_total", "Streams passed to the memory-system solver, summed over re-solves.", nil),
		activeFlows:   r.Gauge("memcontention_engine_active_flows", "Concurrently active transfers.", nil),
		avgRate:       r.Histogram("memcontention_engine_flow_avg_rate_gbps", "Average bandwidth of finished flows.", obs.BandwidthBuckets(), nil),
	}
}

// Handle is one transfer, active or completed: the flow manager's record
// of it and the caller's handle on it are the same storage. Start
// allocates it; StartInto and StartAll start flows in storage the caller
// owns, such as a fabric transfer's object, and allocate nothing.
type Handle struct {
	stream    memsys.Stream // its ID is the flow's id
	remaining float64       // bytes
	rate      float64       // GB/s, last solved
	started   float64       // sim time
	touched   float64       // sim time of the last progress integration
	done      Signal
	finished  bool
	completed float64    // sim time at completion
	moved     float64    // bytes completed so far (for AvgRate)
	span      obs.SpanID // causal span, 0 when spans are off
}

// NewFlows returns a flow manager bound to sim and sys. Its active set
// holds a flow per core of the platform and one DMA flow each way before
// it grows.
func NewFlows(sim *Sim, sys *memsys.System) *Flows {
	n := sys.Platform().NCores() + 2
	f := &Flows{
		sim:     sim,
		sys:     sys,
		active:  make([]*Handle, 0, n),
		streams: make([]memsys.Stream, 0, n),
		rates:   make([]float64, 0, n),
	}
	f.completion.Bind(sim, (*flowCompletion)(f))
	return f
}

// flowCompletion is the Action of a flow manager's completion event.
type flowCompletion Flows

func (c *flowCompletion) Act() { (*Flows)(c).onCompletion() }

// System returns the underlying memory system.
func (f *Flows) System() *memsys.System { return f.sys }

// Start begins a transfer of size bytes described by the stream template
// (its ID field is overwritten with a fresh unique ID) and returns its
// handle, the one allocation. It may be called from process or scheduler
// context. A stream the solver rejects fails the simulation: Sim.Run
// returns the solver's error.
func (f *Flows) Start(st memsys.Stream, size units.ByteSize) *Handle {
	h := new(Handle)
	f.StartInto(h, st, size, 0)
	return h
}

// StartInto begins a transfer like Start in storage the caller owns, and
// parents the flow's causal span under parent (0 = root) when the
// observer records spans. It allocates nothing. The caller may pass h
// again once its transfer has completed, but not while it is active: the
// manager holds a pointer to it. simnet starts the two DMA flows of a
// message in the message's transfer object, under its transfer span.
func (f *Flows) StartInto(h *Handle, st memsys.Stream, size units.ByteSize, parent obs.SpanID) {
	f.integrate()
	f.add(h, st, size, parent)
	f.sim.deferResolve(f)
}

// StartAll begins one transfer of size bytes per stream template, in
// order, exactly as that many StartInto calls would (same ids,
// observer and span notifications, one re-solve), and keeps the handles
// in storage the caller owns: it returns hs[:len(streams)], growing hs
// only when it is too short. The caller may pass the same storage again
// once every handle in it has completed, but not while any of them is
// active: the manager holds pointers to active handles. MPI starts a
// compute phase's per-core flows with it, reusing one array per rank.
func (f *Flows) StartAll(hs []Handle, streams []memsys.Stream, size units.ByteSize, parent obs.SpanID) []Handle {
	f.integrate()
	hs = slices.Grow(hs[:0], len(streams))[:len(streams)]
	for i, st := range streams {
		f.add(&hs[i], st, size, parent)
	}
	f.sim.deferResolve(f)
	return hs
}

// add makes h a fresh transfer of size bytes for the stream template st
// and appends it to the active set. The caller integrates before and
// re-solves after.
func (f *Flows) add(h *Handle, st memsys.Stream, size units.ByteSize, parent obs.SpanID) {
	f.nextID++
	id := f.nextID
	st.ID = id
	*h = Handle{
		stream:    st,
		remaining: float64(size.Bytes()),
		started:   f.sim.Now(),
		done:      Signal{sim: f.sim},
	}
	f.active = append(f.active, h)
	f.streams = append(f.streams, st)
	f.m.started.Inc()
	f.m.activeFlows.Set(float64(len(f.active)))
	if f.observer != nil {
		f.observer.FlowStarted(f.machine, id, st, h.remaining, h.started)
	}
	if f.spans != nil {
		h.span = f.spans.BeginSpan(parent, fmt.Sprintf("flow #%d", id), "flow", h.started, obs.SpanAttrs{
			Machine: f.machine,
			Rank:    -1,
			Flow:    id,
			Stream:  st.Kind.String(),
			Node:    int(st.Node),
			Links:   f.sys.Links(st),
		})
	}
}

// TransferAndWait starts a transfer and parks the calling process until it
// completes. It returns the completion time and the average rate.
func (f *Flows) TransferAndWait(p *Proc, st memsys.Stream, size units.ByteSize) (at float64, avg units.Bandwidth) {
	h := f.Start(st, size)
	h.Wait(p)
	return h.CompletedAt(), h.AvgRate()
}

// Wait parks the calling process until the transfer completes.
func (h *Handle) Wait(p *Proc) {
	for !h.finished {
		if p.waitReason == "" && p.waitLazy == nil {
			p.SetWaitReason("transfer-wait")
		}
		h.done.Wait(p)
	}
}

// Then queues ev, an event the caller owns and has bound (Timer.Bind),
// once the transfer completes. The completion queues it in the event slot
// where it wakes a process waiting on the handle, so callbacks and
// waiters run in the order they registered; no process is spawned or
// parked for it, and nothing is allocated. On a finished transfer ev is
// scheduled at the current time. ev must stay idle from the call until
// it has fired.
func (h *Handle) Then(ev *Timer) {
	if h.finished {
		ev.Schedule(h.done.sim.now)
		return
	}
	h.done.add(ev)
}

// Done reports whether the transfer has completed.
func (h *Handle) Done() bool { return h.finished }

// CompletedAt reports the completion time (0 when not finished).
func (h *Handle) CompletedAt() float64 {
	if !h.finished {
		return 0
	}
	return h.completed
}

// AvgRate reports the transfer's average bandwidth over its lifetime
// (0 when not finished or instantaneous).
func (h *Handle) AvgRate() units.Bandwidth {
	if !h.finished {
		return 0
	}
	dur := h.completed - h.started
	if dur <= 0 {
		return 0
	}
	return units.Bandwidth(h.moved / units.BytesPerGB / dur)
}

// CurrentRate reports the instantaneous solved rate of an active transfer,
// making any re-solve still pending first.
func (h *Handle) CurrentRate() units.Bandwidth {
	h.done.sim.flush()
	return units.Bandwidth(h.rate)
}

// integrate advances every active flow to the current time at its last
// solved rate.
func (f *Flows) integrate() {
	now := f.sim.Now()
	for _, fl := range f.active {
		elapsed := now - fl.lastTouch()
		if elapsed <= 0 {
			continue
		}
		movedBytes := fl.rate * units.BytesPerGB * elapsed
		if movedBytes > fl.remaining {
			movedBytes = fl.remaining
		}
		fl.remaining -= movedBytes
		fl.moved += movedBytes
		fl.touched = now
	}
}

// lastTouch reports when the flow's remaining count was last updated.
func (h *Handle) lastTouch() float64 {
	if h.touched > h.started {
		return h.touched
	}
	return h.started
}

// resolve re-solves rates for the active set and queues the completion
// event, which is out of the queue, at the earliest finish with the
// sequence number the last change reserved: the (time, seq) an immediate
// re-solve would have given it. When no flow can make progress, the
// event stays out of the queue.
func (f *Flows) resolve() {
	if at := f.solve(); !math.IsInf(at, 1) {
		f.sim.place(&f.completion, at, f.seq)
	}
}

// solve sets every active flow's rate and returns the earliest time one
// of them finishes: +Inf when none can progress, there are none, or the
// solver failed, which fails the run.
func (f *Flows) solve() float64 {
	if len(f.active) == 0 {
		return math.Inf(1)
	}
	f.rates = slices.Grow(f.rates[:0], len(f.active))[:len(f.active)]
	if _, err := f.sys.SolveInto(f.streams, f.rates); err != nil {
		f.sim.fail(fmt.Errorf("engine: flow solve failed: %w", err))
		return math.Inf(1)
	}
	f.m.rateResolves.Inc()
	f.m.solverStreams.Add(float64(len(f.streams)))
	nextAt := math.Inf(1)
	now := f.sim.Now()
	// applied collects the rates the flows actually run at — after the
	// limiter, which can differ from the solver's grants under fault
	// injection. Only built when someone is listening.
	var applied map[int]float64
	if f.observer != nil {
		applied = make(map[int]float64, len(f.active))
	}
	for i, fl := range f.active {
		fl.rate = f.rates[i]
		if f.limiter != nil {
			fl.rate = f.limiter(fl.stream, fl.rate)
			if fl.rate < 0 || math.IsNaN(fl.rate) {
				fl.rate = 0
			}
		}
		if applied != nil {
			applied[fl.stream.ID] = fl.rate
		}
		if fl.rate > 0 {
			eta := now + fl.remaining/(fl.rate*units.BytesPerGB)
			if eta < nextAt {
				nextAt = eta
			}
		}
	}
	if f.observer != nil {
		f.observer.RatesResolved(f.machine, now, applied)
	}
	// With no flow able to progress, they stay parked: if nothing else
	// wakes the simulation, Run reports a deadlock.
	return nextAt
}

// onCompletion fires when the earliest flow(s) finish: it integrates
// progress, completes every drained flow in ascending id order, and
// defers the re-solve of the rest.
func (f *Flows) onCompletion() {
	f.integrate()
	const eps = 1 // byte: guards float roundoff
	live, streams, left := f.active[:0], f.streams[:0], len(f.active)
	for i, fl := range f.active {
		if fl.remaining > eps {
			live = append(live, fl)
			streams = append(streams, f.streams[i])
			continue
		}
		fl.moved += fl.remaining
		fl.remaining = 0
		fl.finished = true
		fl.completed = f.sim.Now()
		left--
		avg := 0.0
		if d := fl.completed - fl.started; d > 0 {
			avg = fl.moved / units.BytesPerGB / d
		}
		f.m.finished.Inc()
		f.m.activeFlows.Set(float64(left))
		f.m.avgRate.Observe(avg)
		if f.observer != nil {
			f.observer.FlowFinished(f.machine, fl.stream.ID, fl.completed, avg)
		}
		if f.spans != nil && fl.span != 0 {
			f.spans.EndSpan(fl.span, fl.completed)
		}
		fl.done.Fire()
	}
	clear(f.active[len(live):])
	f.active, f.streams = live, streams
	f.sim.deferResolve(f)
}

// ActiveCount reports the number of in-progress transfers.
func (f *Flows) ActiveCount() int { return len(f.active) }
