package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.At(2.0, func() { order = append(order, 2) })
	s.At(1.0, func() { order = append(order, 1) })
	s.At(3.0, func() { order = append(order, 3) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events fired out of order: %v", order)
	}
	if s.Now() != 3.0 {
		t.Errorf("final time %v, want 3.0", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(1.0, func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events must fire in scheduling order, got %v", order)
		}
	}
}

func TestTimerCancel(t *testing.T) {
	s := NewSim()
	fired := false
	tm := s.At(1.0, func() { fired = true })
	tm.Cancel()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled timer fired")
	}
	tm.Cancel() // double cancel is a no-op
	var nilTimer *Timer
	nilTimer.Cancel() // nil-safe
}

func TestAfterClampsNegative(t *testing.T) {
	s := NewSim()
	at := -1.0
	s.After(-5, func() { at = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Errorf("negative delay must clamp to now, fired at %v", at)
	}
}

// TestAtClampsNaN: a NaN time means now, as a NaN delay does for After,
// so simulated time never becomes NaN.
func TestAtClampsNaN(t *testing.T) {
	s := NewSim()
	var at []float64
	for _, when := range []float64{1, math.NaN(), 0.5} {
		s.At(when, func() { at = append(at, s.Now()) })
	}
	s.After(math.NaN(), func() { at = append(at, s.Now()) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 0, 0.5, 1}; !slices.Equal(at, want) || s.Now() != 1 {
		t.Errorf("events fired at %v, ending at %v; want %v, ending at 1", at, s.Now(), want)
	}
}

// TestEventQueueOrder: random interleavings of Schedule, At, Cancel and
// pops drain the event queue in (time, seq) order, checked against a
// reference the test sorts itself, and at every step an event that is
// not queued reads index -1 and a queued one its position in the queue.
// Times are drawn from a few values, so most pops break a tie by seq.
func TestEventQueueOrder(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := NewSim()
		nop := actFunc(func() {})
		bound := make([]Timer, 12)
		var all, ref []*Timer // every event made; the queued ones
		for i := range bound {
			bound[i].Bind(s, nop)
			all = append(all, &bound[i])
		}
		check := func(step string) {
			t.Helper()
			if len(s.events) != len(ref) {
				t.Fatalf("seed %d, %s: %d events queued, want %d", seed, step, len(s.events), len(ref))
			}
			for _, e := range all {
				queued := slices.Contains(ref, e)
				if !queued && e.index != -1 || queued && (e.index < 0 || e.index >= len(s.events) || s.events[e.index] != e) {
					t.Fatalf("seed %d, %s: event (%v, %d) has index %d, queued %v", seed, step, e.time, e.seq, e.index, queued)
				}
			}
		}
		pop := func() {
			t.Helper()
			slices.SortFunc(ref, func(a, b *Timer) int {
				return cmp.Or(cmp.Compare(a.time, b.time), cmp.Compare(a.seq, b.seq))
			})
			want := ref[0]
			ref = ref[1:]
			if got := s.events.pop(); got != want {
				t.Fatalf("seed %d: popped (%v, %d), want (%v, %d)", seed, got.time, got.seq, want.time, want.seq)
			}
			s.now = want.time
			check("pop")
		}
		for op := 0; op < 300; op++ {
			at := s.now + float64(r.Intn(4)) - 0.5 // now-0.5 clamps to now
			switch r.Intn(4) {
			case 0:
				if e := &bound[r.Intn(len(bound))]; e.index < 0 {
					e.Schedule(at)
					ref = append(ref, e)
				}
				check("Schedule")
			case 1:
				e := s.At(at, func() {})
				all = append(all, e)
				ref = append(ref, e)
				check("At")
			case 2:
				e := all[r.Intn(len(all))]
				e.Cancel()
				ref = slices.DeleteFunc(ref, func(q *Timer) bool { return q == e })
				check("Cancel")
			default:
				if len(ref) > 0 {
					pop()
				}
			}
		}
		for len(ref) > 0 {
			pop()
		}
	}
}

// TestSimAtAllocs: scheduling and firing an event allocates the event
// and nothing else.
func TestSimAtAllocs(t *testing.T) {
	s := NewSim()
	fn := func() {}
	got := testing.AllocsPerRun(100, func() {
		s.At(s.Now()+1, fn)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Errorf("At plus firing allocates %v, want 1", got)
	}
}

// TestSignalFireAllocs: a Signal.Fire wake-up allocates nothing: the
// waiter sits inline in the signal and the wake-up is the process's own
// event. Two processes ping-pong over two signals; the difference between
// 200 and 100 rounds (two wake-ups each) cancels the set-up.
func TestSignalFireAllocs(t *testing.T) {
	run := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			s := NewSim()
			ping, pong := s.NewSignal(), s.NewSignal()
			s.Spawn("b", func(p *Proc) {
				for i := 0; i < rounds; i++ {
					ping.Wait(p)
					pong.Fire()
				}
			})
			s.Spawn("a", func(p *Proc) {
				for i := 0; i < rounds; i++ {
					ping.Fire()
					pong.Wait(p)
				}
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got := (run(200) - run(100)) / 200; got != 0 {
		t.Errorf("a Signal.Fire wake-up allocates %v, want 0", got)
	}
}

func TestProcSleep(t *testing.T) {
	s := NewSim()
	var wake []float64
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(1.5)
		wake = append(wake, p.Sim().Now())
		p.Sleep(0.5)
		wake = append(wake, p.Sim().Now())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(wake) != 2 || wake[0] != 1.5 || wake[1] != 2.0 {
		t.Errorf("sleep times wrong: %v", wake)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := NewSim()
		var log []string
		for _, name := range []string{"a", "b"} {
			name := name
			s.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					log = append(log, name)
					p.Sleep(1)
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for i := 0; i < 5; i++ {
		if strings.Join(run(), "") != strings.Join(first, "") {
			t.Fatal("process interleaving is not deterministic")
		}
	}
}

func TestSignalWakesAllWaiters(t *testing.T) {
	s := NewSim()
	sig := s.NewSignal()
	woken := 0
	for i := 0; i < 3; i++ {
		s.Spawn("waiter", func(p *Proc) {
			sig.Wait(p)
			woken++
		})
	}
	s.Spawn("firer", func(p *Proc) {
		p.Sleep(1)
		sig.Fire()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 3 {
		t.Errorf("woken = %d, want 3", woken)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := NewSim()
	sig := s.NewSignal()
	s.Spawn("stuck", func(p *Proc) {
		sig.Wait(p) // never fired
	})
	err := s.Run()
	if err == nil {
		t.Fatal("deadlocked simulation must return an error")
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Errorf("deadlock error must name the process: %v", err)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	s := NewSim()
	var childAt float64
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(1)
		p.Sim().Spawn("child", func(c *Proc) {
			c.Sleep(1)
			childAt = c.Sim().Now()
		})
		p.Sleep(5)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 2.0 {
		t.Errorf("child finished at %v, want 2.0", childAt)
	}
}

func TestProcessPanicSurfaces(t *testing.T) {
	s := NewSim()
	s.Spawn("bomb", func(p *Proc) {
		panic("boom")
	})
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("panic must surface as error, got %v", err)
	}
}

// TestCallbackPanicFailsRun: a panic in an event callback fails the run
// with the event's time, whichever goroutine holds the event loop when it
// fires: Run's own, a parked process's or a finished process's.
func TestCallbackPanicFailsRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		proc func(p *Proc)
	}{
		{"run", nil},
		{"parked", func(p *Proc) { p.Sleep(2) }},
		{"finished", func(*Proc) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSim()
			if tc.proc != nil {
				s.Spawn("a", tc.proc)
			}
			s.At(0.5, func() { panic("boom") })
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Run panicked: %v", r)
					}
				}()
				err = s.Run()
			}()
			if want := "engine: event at t=0.500000s panicked: boom"; err == nil || err.Error() != want {
				t.Errorf("Run returned %v, want %q", err, want)
			}
		})
	}
}

// TestParkedProcessResumesInLaterRun: a process still parked when Run
// reports a deadlock keeps its goroutine blocked; an event queued
// afterwards and a second Run hand control back to it, and it finishes.
func TestParkedProcessResumesInLaterRun(t *testing.T) {
	s := NewSim()
	sig := s.NewSignal()
	finishedAt := -1.0
	s.Spawn("waiter", func(p *Proc) {
		sig.Wait(p)
		p.Sleep(1)
		finishedAt = p.Sim().Now()
	})
	var de *DeadlockError
	if err := s.Run(); !errors.As(err, &de) || len(de.Stuck) != 1 {
		t.Fatalf("first Run returned %v, want a deadlock of the waiter", err)
	}
	s.At(2, sig.Fire)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if finishedAt != 3 {
		t.Errorf("waiter finished at %v, want 3", finishedAt)
	}
}

// TestDoubleWakePanics: a process has one wake-up event, so queueing a
// second while one is pending is a bug and panics, naming the process.
func TestDoubleWakePanics(t *testing.T) {
	s := NewSim()
	p := s.Spawn("twice", func(*Proc) {}) // its start is the pending wake-up
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `"twice"`) {
			t.Errorf("second wake-up recovered %v, want a panic naming the process", r)
		}
	}()
	p.wakeup.Schedule(s.Now())
}

// TestScheduleQueuedPanics: a bound event is queued at most once at a
// time, so scheduling it again before it fires panics.
func TestScheduleQueuedPanics(t *testing.T) {
	s := NewSim()
	var ev Timer
	ev.Bind(s, actFunc(func() {}))
	ev.Schedule(1)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "scheduled while queued") {
			t.Errorf("second Schedule recovered %v, want a panic", r)
		}
	}()
	ev.Schedule(2)
}

func TestRunTwice(t *testing.T) {
	s := NewSim()
	s.At(1, func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// A second Run with new events continues from the current time.
	fired := false
	s.At(2, func() { fired = true })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("second Run must process new events")
	}
}

func TestProcName(t *testing.T) {
	s := NewSim()
	var got string
	s.Spawn("my-rank", func(p *Proc) { got = p.Name() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "my-rank" {
		t.Errorf("Name() = %q", got)
	}
}

func TestSignalFireWithoutWaiters(t *testing.T) {
	s := NewSim()
	sig := s.NewSignal()
	s.At(1, func() { sig.Fire() }) // no waiters: must be a no-op
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventSchedulingInsideEvent(t *testing.T) {
	s := NewSim()
	var order []int
	s.At(1, func() {
		order = append(order, 1)
		s.At(1, func() { order = append(order, 2) })   // same time, later seq
		s.At(0.5, func() { order = append(order, 3) }) // past: clamped to now
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("nested scheduling order = %v", order)
	}
}

func TestManyProcsStress(t *testing.T) {
	s := NewSim()
	const procs = 200
	done := 0
	for i := 0; i < procs; i++ {
		i := i
		s.Spawn("p", func(p *Proc) {
			p.Sleep(float64(i%7) * 1e-4)
			done++
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done != procs {
		t.Errorf("%d/%d processes completed", done, procs)
	}
}

func TestRunCanceledBeforeStart(t *testing.T) {
	s := NewSim()
	s.Spawn("p", func(p *Proc) { p.Sleep(1) })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.SetContext(ctx)
	err := s.Run()
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v does not unwrap to context.Canceled", err)
	}
	if len(ce.Stuck) != 1 {
		t.Fatalf("stuck = %v, want the unstarted process", ce.Stuck)
	}
}

func TestRunCanceledMidRun(t *testing.T) {
	s := NewSim()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.SetContext(ctx)
	fired := 0
	for i := 0; i < 10; i++ {
		i := i
		s.After(float64(i), func() {
			fired++
			if i == 4 {
				cancel()
			}
		})
	}
	err := s.Run()
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if fired != 5 {
		t.Fatalf("fired %d events, want 5 (cancellation takes effect between events)", fired)
	}
	if ce.At != 4 || ce.Events != 5 {
		t.Fatalf("CanceledError At=%v Events=%d, want At=4 Events=5", ce.At, ce.Events)
	}
}

func TestBackgroundContextIsFree(t *testing.T) {
	s := NewSim()
	s.SetContext(context.Background())
	done := false
	s.After(1, func() { done = true })
	if err := s.Run(); err != nil || !done {
		t.Fatalf("run with background context: err=%v done=%v", err, done)
	}
	// nil resets to no checking at all.
	s2 := NewSim()
	s2.SetContext(nil)
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSimEvents times the scheduler alone: two processes ping-pong
// over two signals 64 times, one of them sleeping on a timer each round.
func BenchmarkSimEvents(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSim()
		ping, pong := s.NewSignal(), s.NewSignal()
		s.Spawn("b", func(p *Proc) {
			for k := 0; k < 64; k++ {
				ping.Wait(p)
				pong.Fire()
			}
		})
		s.Spawn("a", func(p *Proc) {
			for k := 0; k < 64; k++ {
				p.Sleep(1e-6)
				ping.Fire()
				pong.Wait(p)
			}
		})
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
