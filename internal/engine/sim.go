// Package engine provides a deterministic discrete-event simulation core
// with cooperatively scheduled processes and fluid-flow data transfers.
//
// Processes (Proc) are goroutines, but exactly one of them — or the
// scheduler — runs at any instant: control is handed over explicitly, so a
// simulation is single-threaded in effect and bit-for-bit reproducible.
// Simulated time only advances in the scheduler, between events.
//
// The Flows manager (flows.go) integrates finite-size data transfers whose
// instantaneous rates come from the memsys solver: whenever transfers
// start or complete, all rates are re-solved, which is exactly the fluid
// approximation of bandwidth sharing the paper's steady-state measurements
// assume. A batch of transfers started together (Flows.StartAll, one per
// compute phase) is re-solved once, as is every completion event.
// Completion can wake waiting processes or run callbacks (Handle.Then)
// in scheduler context, which need no process of their own.
package engine

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"memcontention/internal/obs"
)

// eventHeap orders scheduled events by (time, seq).
type eventHeap []*Timer

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*Timer)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Sim is a simulation instance. Create one with NewSim, spawn processes,
// then call Run. A Sim must not be shared between concurrently running
// simulations; all access happens in scheduler or process context.
type Sim struct {
	now    float64
	seq    int64
	events eventHeap
	procs  []*Proc
	// yield carries control from the running process back to the
	// scheduler; each Proc has its own resume channel.
	yield   chan struct{}
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
	return &Sim{yield: make(chan struct{})}
}

// Now reports the current simulated time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn to run in scheduler context at absolute time t (clamped
// to now; a NaN time means now). It returns a handle that can cancel the
// event.
func (s *Sim) At(t float64, fn func()) *Timer { return s.schedule(t, fn, nil) }

// After schedules fn after a delay d >= 0 (a negative or NaN delay means
// zero).
func (s *Sim) After(d float64, fn func()) *Timer { return s.At(s.now+d, fn) }

// schedule queues one event at time t that calls fn or, when p is set,
// wakes the parked process p. A time before now or NaN means now, which
// is how After and Sleep treat a negative or NaN delay. The event is the
// only allocation.
func (s *Sim) schedule(t float64, fn func(), p *Proc) *Timer {
	if !(t >= s.now) {
		t = s.now
	}
	e := &Timer{time: t, seq: s.seq, fire: fn, proc: p}
	s.seq++
	heap.Push(&s.events, e)
	return e
}

// Timer is a scheduled event, and the handle that cancels it. Events at
// equal times fire in scheduling order (seq), which keeps the simulation
// deterministic.
type Timer struct {
	time float64
	seq  int64
	// fire runs in scheduler context; when proc is set the event wakes
	// that process instead.
	fire func()
	proc *Proc
	// cancelled events stay in the heap but do nothing when popped.
	cancelled bool
}

// Cancel prevents the event from firing. Cancelling a fired or already
// cancelled timer is a no-op.
func (t *Timer) Cancel() {
	if t != nil {
		t.cancelled = true
	}
}

// Proc is a simulated process. Its methods must only be called from the
// process's own goroutine (inside the function passed to Spawn).
type Proc struct {
	sim    *Sim
	name   string
	resume chan struct{}
	done   bool
	parked bool
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
	p := &Proc{sim: s, name: name, resume: make(chan struct{})}
	s.procs = append(s.procs, p)
	s.m.procsSpawned.Inc()
	s.At(s.now, func() {
		go func() {
			defer func() {
				if r := recover(); r != nil {
					s.fail(fmt.Errorf("engine: process %q panicked: %v", name, r))
				}
				p.done = true
				s.yield <- struct{}{}
			}()
			fn(p)
		}()
		<-s.yield // wait until the new process parks or finishes
	})
	return p
}

// fail records err as the simulation's failure; the first one wins. Run
// returns it once the current event has finished.
func (s *Sim) fail(err error) {
	if s.failure == nil {
		s.failure = err
	}
}

// park suspends the calling process and returns control to the scheduler.
// The process resumes when some event sends on p.resume.
func (p *Proc) park() {
	if p.waitReason == "" && p.waitLazy == nil {
		p.waitReason = "parked"
		p.waitSince = p.sim.now
	}
	p.parked = true
	p.sim.yield <- struct{}{}
	<-p.resume
	p.parked = false
	p.waitReason = ""
	p.waitLazy = nil
}

// wake resumes a parked process from scheduler context and waits for it to
// park again or finish.
func (s *Sim) wake(p *Proc) {
	p.resume <- struct{}{}
	<-s.yield
}

// Sleep suspends the process for d simulated seconds (d < 0 is treated as
// zero, which still yields to the scheduler once).
func (p *Proc) Sleep(d float64) {
	s := p.sim
	s.schedule(s.now+d, nil, p)
	p.SetWaitReason("sleep")
	p.park()
}

// Signal is a broadcast condition processes can wait on. The zero value is
// ready to use: a Wait binds it to the waiting process's simulation.
type Signal struct {
	sim *Sim
	// waiters are woken, or run, in registration order.
	waiters []waiter
}

// waiter is one registration on a Signal: a parked process, or, when proc
// is nil, a callback to run in scheduler context (Handle.Then).
type waiter struct {
	proc *Proc
	fn   func()
}

// NewSignal returns a signal bound to the simulation.
func (s *Sim) NewSignal() *Signal { return &Signal{sim: s} }

// Wait parks the calling process until the next Fire.
func (sg *Signal) Wait(p *Proc) {
	sg.sim = p.sim
	sg.waiters = append(sg.waiters, waiter{proc: p})
	p.park()
}

// Fire wakes every current waiter (in wait order) at the current time.
// It may be called from process or scheduler context. Each wake-up or
// callback is one scheduled event; the waiter list keeps its storage for
// the next Wait.
func (sg *Signal) Fire() {
	for _, w := range sg.waiters {
		sg.sim.schedule(sg.sim.now, w.fn, w.proc)
	}
	clear(sg.waiters)
	sg.waiters = sg.waiters[:0]
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
// if a process panicked, if the flow solver rejected a stream (wrapping
// the solver's error), if processes remain parked with no pending event
// that could wake them (*DeadlockError), or if an armed watchdog budget is
// exceeded (*BudgetError).
func (s *Sim) Run() error {
	if s.running {
		return fmt.Errorf("engine: Run called re-entrantly")
	}
	s.running = true
	defer func() { s.running = false }()

	for s.failure == nil && s.events.Len() > 0 {
		if s.done != nil {
			select {
			case <-s.done:
				return &CanceledError{At: s.now, Events: s.fired, Cause: context.Cause(s.ctx), Stuck: s.waitStates()}
			default:
			}
		}
		e := heap.Pop(&s.events).(*Timer)
		if e.cancelled {
			continue
		}
		if e.time < s.now {
			return fmt.Errorf("engine: event time went backwards (%.9f < %.9f)", e.time, s.now)
		}
		if s.maxSimTime > 0 && e.time > s.maxSimTime {
			return &BudgetError{Kind: "sim-time", Limit: s.maxSimTime, At: s.now, Events: s.fired, Stuck: s.waitStates()}
		}
		if s.maxEvents > 0 && s.fired >= s.maxEvents {
			return &BudgetError{Kind: "event-count", Limit: float64(s.maxEvents), At: s.now, Events: s.fired, Stuck: s.waitStates()}
		}
		s.now = e.time
		s.fired++
		s.m.eventsFired.Inc()
		s.m.virtualTime.Set(s.now)
		if e.proc != nil {
			s.wake(e.proc)
		} else {
			e.fire()
		}
	}
	if s.failure != nil {
		return s.failure
	}
	if stuck := s.waitStates(); len(stuck) > 0 {
		return &DeadlockError{At: s.now, Stuck: stuck}
	}
	return nil
}
