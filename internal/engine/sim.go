// Package engine provides a deterministic discrete-event simulation core
// with cooperatively scheduled processes and fluid-flow data transfers.
//
// Processes (Proc) are goroutines, and the event loop runs on whichever
// goroutine holds control: Run's caller until the first process wakes,
// then the process that has just parked or finished. That goroutine pops
// events and runs callbacks ("scheduler context") until an event wakes a
// process, then hands control straight to it: one goroutine switch per
// wake-up, and none when a process's next wake-up is its own. Exactly
// one goroutine runs simulation code at any instant, so a simulation is
// single-threaded in effect and bit-for-bit reproducible. Simulated time
// only advances in the event loop, between events.
//
// The Flows manager (flows.go) integrates finite-size data transfers whose
// instantaneous rates come from the memsys solver: whenever transfers
// start or complete, all rates are re-solved, which is exactly the fluid
// approximation of bandwidth sharing the paper's steady-state measurements
// assume. A machine is re-solved once per simulated instant, in unchanged
// event order: a start or completion only reserves the sequence number its
// completion event would have taken, and the event loop re-solves and
// queues that event at the reserved (time, seq) before it fires anything
// the event could precede (Sim.flush). Re-solves in between would move no
// bytes, since no time passes within an instant. Completion can wake
// waiting processes or queue caller-owned events (Handle.Then), whose
// actions run in scheduler context and need no process of their own.
package engine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"memcontention/internal/obs"
)

// eventQueue is a binary min-heap of the queued events, ordered by
// (time, seq). No two queued events share a key, so the events leave it
// in one order whatever its layout. Every event records its position,
// so that Cancel can remove it in place.
type eventQueue []*Timer

// before reports whether a fires before b.
func before(a, b *Timer) bool {
	return a.time < b.time || a.time == b.time && a.seq < b.seq
}

// push queues e.
func (q *eventQueue) push(e *Timer) {
	*q = append(*q, e)
	q.up(len(*q)-1, e)
}

// pop takes the first event out of the non-empty queue.
func (q *eventQueue) pop() *Timer {
	e := (*q)[0]
	q.remove(0)
	return e
}

// remove takes the event at position i out of the queue: the last event
// fills the hole and moves down or up to its place.
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	h[i].index = -1
	last := h[n]
	h[n] = nil
	*q = h[:n]
	if i < n && !q.down(i, last) {
		q.up(i, last)
	}
}

// up places e, which belongs at position i or above, on the path from i
// to the root.
func (q eventQueue) up(i int, e *Timer) {
	for i > 0 {
		p := (i - 1) / 2
		if !before(e, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = e
	e.index = i
}

// down places e, which belongs at position i or below, under i. It
// reports whether e moved.
func (q eventQueue) down(i int, e *Timer) bool {
	start, n := i, len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(q[r], q[c]) {
			c = r
		}
		if !before(q[c], e) {
			break
		}
		q[i] = q[c]
		q[i].index = i
		i = c
	}
	q[i] = e
	e.index = i
	return i > start
}

// Sim is a simulation instance. Create one with NewSim, spawn processes,
// then call Run. A Sim must not be shared between concurrently running
// simulations; all access happens in scheduler or process context.
type Sim struct {
	now    float64
	seq    int64
	events eventQueue
	procs  []*Proc
	// ended hands control back to Run's goroutine when a run ends on a
	// process's goroutine; outcome is the result Run then returns.
	ended   chan struct{}
	outcome error
	running bool
	failure error
	// fired counts events executed, for the event-count budget.
	fired int64
	// budgets; zero values disable the watchdog entirely.
	maxSimTime float64
	maxEvents  int64
	// ctx/done carry external cancellation (SIGINT, test deadlines).
	// A nil done channel — the default, and what context.Background()
	// yields — keeps the event loop entirely check-free.
	ctx  context.Context
	done <-chan struct{}
	// m holds the optional instruments; the zero value (nil pointers)
	// makes every recording call a no-op.
	m simInstruments
	// pending lists the flow managers whose re-solve is deferred, in the
	// order they changed, linked through Flows.nextPending; pendingTail
	// is the last. flushSeq is the sequence number the first of them
	// reserved, so no completion they queue orders before (now, flushSeq).
	pending, pendingTail *Flows
	flushSeq             int64
}

// simInstruments are the scheduler's telemetry hooks. Nil instruments
// (registry never attached) record nothing at zero cost.
type simInstruments struct {
	eventsFired  *obs.Counter
	procsSpawned *obs.Counter
	virtualTime  *obs.Gauge
}

// SetRegistry registers the scheduler's instruments in r and starts
// recording into them. A nil registry detaches (instrumentation becomes
// no-op again).
func (s *Sim) SetRegistry(r *obs.Registry) {
	s.m = simInstruments{
		eventsFired:  r.Counter("memcontention_engine_events_fired_total", "Scheduler events fired.", nil),
		procsSpawned: r.Counter("memcontention_engine_procs_spawned_total", "Simulated processes spawned.", nil),
		virtualTime:  r.Gauge("memcontention_engine_virtual_time_seconds", "Current simulated time.", nil),
	}
}

// NewSim returns an empty simulation at time zero.
func NewSim() *Sim {
	return &Sim{ended: make(chan struct{})}
}

// Now reports the current simulated time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn to run in scheduler context at absolute time t (clamped
// to now; a NaN time means now). It returns a handle that can cancel the
// event; the handle is the only allocation, one per call. A caller that
// schedules per message or per callback owns its events instead
// (Timer.Bind), which allocates nothing.
func (s *Sim) At(t float64, fn func()) *Timer {
	e := &Timer{sim: s, index: -1, act: actFunc(fn)}
	s.queue(e, t)
	return e
}

// After schedules fn after a delay d >= 0 (a negative or NaN delay means
// zero).
func (s *Sim) After(d float64, fn func()) *Timer { return s.At(s.now+d, fn) }

// queue schedules the idle event e at time t with a fresh sequence
// number, so it fires after every event already due at t.
func (s *Sim) queue(e *Timer, t float64) {
	s.place(e, t, s.seq)
	s.seq++
}

// place pushes the idle event e at (t, seq). A time before now or NaN
// means now, which is how After and Sleep treat a negative or NaN delay.
func (s *Sim) place(e *Timer, t float64, seq int64) {
	if !(t >= s.now) {
		t = s.now
	}
	e.time, e.seq = t, seq
	s.events.push(e)
}

// deferResolve adds f to the pending flow managers unless it is there
// already, and reserves the next sequence number for its completion
// event. The completion leaves the queue until the flush puts it back.
func (s *Sim) deferResolve(f *Flows) {
	if !f.pending {
		f.pending = true
		f.completion.Cancel()
		if s.pendingTail == nil {
			s.pending, s.flushSeq = f, s.seq
		} else {
			s.pendingTail.nextPending = f
		}
		s.pendingTail = f
	}
	f.seq = s.seq
	s.seq++
}

// flush re-solves every pending flow manager, each of which queues its
// completion at the (time, seq) it reserved. No time passes between the
// change and the flush, so the rates and the completion's place in the
// event order are those an immediate re-solve would have given. Flushing
// early is therefore always safe: the event loop flushes before it pops
// an event a pending completion could precede and before a run ends, and
// every rate read flushes first.
func (s *Sim) flush() {
	for s.pending != nil {
		f := s.pending
		s.pending, f.nextPending, f.pending = f.nextPending, nil, false
		if s.pending == nil {
			s.pendingTail = nil
		}
		f.resolve()
	}
}

// Action is what a caller-owned event does when it fires: Act runs in
// scheduler context. Storing a pointer in an Action allocates nothing,
// so a per-message object can be the action of all of its events.
type Action interface{ Act() }

// actFunc is the Action of an event scheduled with Sim.At. A func value
// is a pointer, so the conversion allocates nothing.
type actFunc func()

func (f actFunc) Act() { f() }

// procWake is the Action of a process's wake-up event. Its Act does
// nothing: the event loop hands control to the process instead.
type procWake Proc

func (*procWake) Act() {}

// Timer is a scheduled event, and the handle that cancels it. Events at
// equal times fire in scheduling order (seq), which keeps the simulation
// deterministic. Sim.At and Sim.After allocate one per call. Every other
// event lives in its owner's storage, bound to an action once and queued
// again and again without allocating: a process's wake-up, a flow
// manager's next completion, and the events a caller binds with Bind,
// such as the latency and drain events of a fabric transfer.
type Timer struct {
	sim  *Sim
	time float64
	seq  int64
	// index is the event's position in the heap, -1 while not queued.
	index int
	// act runs in scheduler context when the event fires; a process's
	// wake-up (procWake) hands control to the process instead.
	act Action
}

// Bind makes t an idle event of s that runs a each time it fires. Bind
// an event before its first Schedule or Then, and never while it is
// queued.
func (t *Timer) Bind(s *Sim, a Action) { *t = Timer{sim: s, index: -1, act: a} }

// Schedule queues the idle event t at absolute time at (clamped to now;
// a NaN time means now), after every event already due then. An event is
// queued at most once at a time: scheduling it again before it has fired
// or been cancelled is a bug, and panics.
func (t *Timer) Schedule(at float64) {
	if t.index >= 0 {
		if p, ok := t.act.(*procWake); ok {
			panic(fmt.Sprintf("engine: process %q woken twice", p.name))
		}
		panic("engine: event scheduled while queued")
	}
	t.sim.queue(t, at)
}

// Cancel prevents the event from firing by taking it out of the queue.
// Cancelling a fired or already cancelled timer is a no-op.
func (t *Timer) Cancel() {
	if t != nil && t.index >= 0 {
		t.sim.events.remove(t.index)
	}
}

// Proc is a simulated process. Its methods must only be called from the
// process's own goroutine (inside the function passed to Spawn).
type Proc struct {
	sim  *Sim
	name string
	fn   func(p *Proc)
	// wakeup is the process's one wake-up event (Spawn, Sleep,
	// Signal.Fire). A second pending wake-up would resume a process that
	// is not parked, so scheduling it while queued panics. The goroutine
	// starts at the first wake-up; resume carries control to it at every
	// later one.
	wakeup  Timer
	started bool
	resume  chan struct{}
	done    bool
	// waitReason/waitSince describe why the process is blocked, for
	// deadlock and watchdog diagnosis. The reason is set by the park
	// site (or defaults to "parked") and cleared on resume. waitLazy,
	// when set, takes precedence and is rendered only at diagnosis
	// time, keeping Sprintf costs off the happy path.
	waitReason string
	waitLazy   fmt.Stringer
	waitSince  float64
}

// Name reports the process name given to Spawn.
func (p *Proc) Name() string { return p.name }

// SetWaitReason records why the process is about to block. Park sites that
// know more than the engine (an MPI receive, a barrier) call it right
// before parking; the reason is cleared when the process resumes.
func (p *Proc) SetWaitReason(reason string) {
	p.waitReason = reason
	p.waitLazy = nil
	p.waitSince = p.sim.now
}

// SetWaitStringer is SetWaitReason for park sites whose description is
// expensive to render (an MPI operation name): s.String() is called only
// if the process ends up in a deadlock or watchdog diagnosis. Storing an
// existing pointer in the interface does not allocate.
func (p *Proc) SetWaitStringer(s fmt.Stringer) {
	p.waitReason = ""
	p.waitLazy = s
	p.waitSince = p.sim.now
}

// Sim returns the owning simulation.
func (p *Proc) Sim() *Sim { return p.sim }

// Spawn creates a process that will start at the current simulated time.
// It may be called before Run or from any running process.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, fn: fn, resume: make(chan struct{})}
	p.wakeup.Bind(s, (*procWake)(p))
	s.procs = append(s.procs, p)
	s.m.procsSpawned.Inc()
	p.wakeup.Schedule(s.now)
	return p
}

// run is the process's goroutine, started at its first wake-up. Once fn
// has returned or panicked, the goroutine runs the event loop on until it
// can hand control to another process or back to Run, and exits.
func (p *Proc) run() {
	s := p.sim
	defer func() {
		if r := recover(); r != nil {
			s.fail(fmt.Errorf("engine: process %q panicked: %v", p.name, r))
		}
		p.done = true
		s.switchTo(s.step())
	}()
	reserveStack(0)
	p.fn(p)
}

// stackReserve is the frame reserveStack calls through. The event loop
// runs on process goroutines, and its deepest common path, a completion
// re-solving flows, reaches memsys.SolveInto, whose stack scratch alone
// takes about 4 KiB; a frame this size makes the runtime grow a small
// starting stack to 8 KiB at once.
const stackReserve = 4 << 10

// reserveStack grows a new process goroutine's stack while it is still
// shallow. Without it the stack grows the first time the event loop
// re-solves flows on the goroutine, and the runtime copies that deep
// stack, often more than once: in BenchmarkAllreduce that copying took a
// third of the CPU time. It returns a byte of its frame so that the
// compiler keeps the frame.
//
//go:noinline
func reserveStack(i int) byte {
	var frame [stackReserve]byte
	return frame[i]
}

// fail records err as the simulation's failure; the first one wins. Run
// returns it once the current event has finished.
func (s *Sim) fail(err error) {
	if s.failure == nil {
		s.failure = err
	}
}

// park suspends the calling process. Its goroutine runs the event loop
// until an event wakes a process: when that is p itself, park returns
// without a goroutine switch. Otherwise it hands control to that process,
// or back to Run when the run has ended, and blocks until p's own
// wake-up, which may come in a later Run.
func (p *Proc) park() {
	if p.waitReason == "" && p.waitLazy == nil {
		p.waitReason = "parked"
		p.waitSince = p.sim.now
	}
	s := p.sim
	if next := s.step(); next != p {
		s.switchTo(next)
		<-p.resume
	}
	p.waitReason = ""
	p.waitLazy = nil
}

// switchTo hands control to p, the process step returned: it starts p's
// goroutine at its first wake-up and resumes it at every later one. A nil
// p means the run has ended, and control goes back to Run's goroutine.
// The calling goroutine must not touch the simulation afterwards until
// control comes back to it.
func (s *Sim) switchTo(p *Proc) {
	switch {
	case p == nil:
		s.ended <- struct{}{}
	case !p.started:
		p.started = true
		//memlint:allow goleak — once fn returns the goroutine runs the event loop, hands control on and exits; one still parked when a run ends stays blocked so that a later Run can resume it
		go p.run()
	default:
		p.resume <- struct{}{}
	}
}

// Sleep suspends the process for d simulated seconds (d < 0 is treated as
// zero, which still lets every event already due now run first).
func (p *Proc) Sleep(d float64) {
	p.wakeup.Schedule(p.sim.now + d)
	p.SetWaitReason("sleep")
	p.park()
}

// Signal is a broadcast condition processes can wait on. The zero value is
// ready to use: a Wait binds it to the waiting process's simulation.
type Signal struct {
	sim *Sim
	// first and more hold the waiters' events, queued in registration
	// order: a parked process's wake-up, or a caller-owned event
	// (Handle.Then). The first sits inline, so a signal that never has
	// two waiters at once never allocates.
	first *Timer
	more  []*Timer
}

// add registers the event ev after the current waiters.
func (sg *Signal) add(ev *Timer) {
	if sg.first == nil {
		sg.first = ev
		return
	}
	sg.more = append(sg.more, ev)
}

// NewSignal returns a signal bound to the simulation.
func (s *Sim) NewSignal() *Signal { return &Signal{sim: s} }

// Wait parks the calling process until the next Fire.
func (sg *Signal) Wait(p *Proc) {
	sg.sim = p.sim
	sg.add(&p.wakeup)
	p.park()
}

// Fire queues every current waiter's event (in wait order) at the
// current time. It may be called from process or scheduler context. The
// events are the waiters' own, so firing allocates nothing, and the
// waiter list keeps its storage for the next Wait.
func (sg *Signal) Fire() {
	if sg.first == nil {
		return // no waiters, so none in more either
	}
	sg.first.Schedule(sg.sim.now)
	for _, ev := range sg.more {
		ev.Schedule(sg.sim.now)
	}
	sg.first = nil
	clear(sg.more)
	sg.more = sg.more[:0]
}

// WaitState describes one blocked process: its name, why it parked (as
// reported by the park site) and the simulated time at which it did.
type WaitState struct {
	Proc   string  `json:"proc"`
	Reason string  `json:"reason"`
	Since  float64 `json:"since"`
}

func (w WaitState) String() string {
	return fmt.Sprintf("%s [%s, since t=%.6fs]", w.Proc, w.Reason, w.Since)
}

// formatStuck renders wait states for error messages, name-sorted.
func formatStuck(stuck []WaitState) string {
	parts := make([]string, len(stuck))
	for i, w := range stuck {
		parts[i] = w.String()
	}
	return strings.Join(parts, "; ")
}

// DeadlockError reports a simulation that ran out of events while
// processes were still blocked, with each process's wait diagnosis.
type DeadlockError struct {
	// At is the simulated time at which the event queue drained.
	At float64
	// Stuck lists every unfinished process, sorted by name.
	Stuck []WaitState
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("engine: deadlock at t=%.6fs, %d process(es) still waiting: %s",
		e.At, len(e.Stuck), formatStuck(e.Stuck))
}

// BudgetError reports a watchdog trip: the simulation exceeded its
// simulated-time or event-count budget before completing.
type BudgetError struct {
	// Kind is "sim-time" or "event-count".
	Kind string
	// Limit is the exceeded budget (seconds or events).
	Limit float64
	// At is the simulated time when the watchdog fired.
	At float64
	// Events is the number of events fired so far.
	Events int64
	// Stuck lists every unfinished process, sorted by name.
	Stuck []WaitState
}

func (e *BudgetError) Error() string {
	var what string
	switch e.Kind {
	case "sim-time":
		what = fmt.Sprintf("simulated-time budget %.6fs exceeded", e.Limit)
	default:
		what = fmt.Sprintf("event budget %d exceeded", int64(e.Limit))
	}
	msg := fmt.Sprintf("engine: watchdog: %s at t=%.6fs after %d events", what, e.At, e.Events)
	if len(e.Stuck) > 0 {
		msg += fmt.Sprintf("; %d process(es) unfinished: %s", len(e.Stuck), formatStuck(e.Stuck))
	}
	return msg
}

// CanceledError reports a run stopped by external cancellation (signal
// handler, test deadline): the event loop exited cleanly between two
// events, so simulation state is consistent and partial results can be
// flushed. It unwraps to the context's cause, so
// errors.Is(err, context.Canceled) identifies a graceful shutdown.
type CanceledError struct {
	// At is the simulated time at which the run stopped.
	At float64
	// Events is the number of events fired before stopping.
	Events int64
	// Cause is the context's cancellation cause.
	Cause error
	// Stuck lists every unfinished process, sorted by name.
	Stuck []WaitState
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("engine: run canceled at t=%.6fs after %d events (%d process(es) unfinished): %v",
		e.At, e.Events, len(e.Stuck), e.Cause)
}

// Unwrap exposes the cancellation cause for errors.Is/As.
func (e *CanceledError) Unwrap() error { return e.Cause }

// SetContext installs an external cancellation source: Run returns a
// *CanceledError as soon as ctx is done, checked between events (never
// mid-event, so state stays consistent). A nil context — or any context
// that can never be canceled, such as context.Background() — removes the
// check entirely, keeping the historical zero-cost event loop.
func (s *Sim) SetContext(ctx context.Context) {
	if ctx == nil {
		s.ctx, s.done = nil, nil
		return
	}
	s.ctx, s.done = ctx, ctx.Done()
}

// SetBudget arms the watchdog: Run fails with a BudgetError as soon as
// simulated time would pass maxSimTime seconds or more than maxEvents
// events have fired. A zero (or negative) value disables that budget;
// SetBudget(0, 0) disarms the watchdog completely (the default).
func (s *Sim) SetBudget(maxSimTime float64, maxEvents int64) {
	if maxSimTime < 0 || math.IsNaN(maxSimTime) {
		maxSimTime = 0
	}
	if maxEvents < 0 {
		maxEvents = 0
	}
	s.maxSimTime = maxSimTime
	s.maxEvents = maxEvents
}

// waitStates lists every unfinished process's wait state, name-sorted.
func (s *Sim) waitStates() []WaitState {
	var stuck []WaitState
	for _, p := range s.procs {
		if p.done {
			continue
		}
		reason := p.waitReason
		if p.waitLazy != nil {
			reason = p.waitLazy.String()
		}
		if reason == "" {
			reason = "not yet scheduled"
		}
		stuck = append(stuck, WaitState{Proc: p.name, Reason: reason, Since: p.waitSince})
	}
	sort.Slice(stuck, func(i, j int) bool {
		if stuck[i].Proc != stuck[j].Proc {
			return stuck[i].Proc < stuck[j].Proc
		}
		return stuck[i].Since < stuck[j].Since
	})
	return stuck
}

// Run executes the simulation until no events remain. It returns an error
// if a process or an event callback panicked, if the flow solver rejected
// a stream (wrapping the solver's error), if processes remain parked with
// no pending event that could wake them (*DeadlockError), or if an armed
// watchdog budget is exceeded (*BudgetError). Processes still parked when
// Run returns stay parked, and a later Run can wake them.
func (s *Sim) Run() error {
	if s.running {
		return fmt.Errorf("engine: Run called re-entrantly")
	}
	s.running = true
	defer func() { s.running = false }()
	if p := s.step(); p != nil {
		s.switchTo(p)
		<-s.ended
	}
	return s.outcome
}

// step runs the event loop on the calling goroutine: it fires callbacks
// until an event wakes a process, and returns that process. When the run
// ends instead, it records Run's result in s.outcome and returns nil.
func (s *Sim) step() *Proc {
	for {
		if s.pending != nil && (len(s.events) == 0 || s.events[0].time > s.now || s.events[0].seq > s.flushSeq) {
			s.flush()
		}
		if s.failure != nil || len(s.events) == 0 {
			break
		}
		if s.done != nil {
			select {
			case <-s.done:
				return s.end(&CanceledError{At: s.now, Events: s.fired, Cause: context.Cause(s.ctx), Stuck: s.waitStates()})
			default:
			}
		}
		e := s.events.pop()
		if e.time < s.now {
			return s.end(fmt.Errorf("engine: event time went backwards (%.9f < %.9f)", e.time, s.now))
		}
		if s.maxSimTime > 0 && e.time > s.maxSimTime {
			return s.end(&BudgetError{Kind: "sim-time", Limit: s.maxSimTime, At: s.now, Events: s.fired, Stuck: s.waitStates()})
		}
		if s.maxEvents > 0 && s.fired >= s.maxEvents {
			return s.end(&BudgetError{Kind: "event-count", Limit: float64(s.maxEvents), At: s.now, Events: s.fired, Stuck: s.waitStates()})
		}
		s.now = e.time
		s.fired++
		s.m.eventsFired.Inc()
		s.m.virtualTime.Set(s.now)
		if p, ok := e.act.(*procWake); ok {
			return (*Proc)(p)
		}
		s.fire(e.act)
	}
	if s.failure != nil {
		return s.end(s.failure)
	}
	if stuck := s.waitStates(); len(stuck) > 0 {
		return s.end(&DeadlockError{At: s.now, Stuck: stuck})
	}
	return s.end(nil)
}

// end re-solves what is pending, records err as the result Run returns,
// and returns the nil process with which step reports that the run has
// ended.
func (s *Sim) end(err error) *Proc {
	s.flush()
	s.outcome = err
	return nil
}

// fire runs one event's action. A panic in it fails the run, whichever
// goroutine holds the event loop at the time.
func (s *Sim) fire(a Action) {
	defer func() {
		if r := recover(); r != nil {
			s.fail(fmt.Errorf("engine: event at t=%.6fs panicked: %v", s.now, r))
		}
	}()
	a.Act()
}
