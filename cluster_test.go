package memcontention

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"memcontention/internal/memsys"
)

// newTestCluster builds a small two-machine cluster or fails the test.
func newTestCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := NewCluster("henri", 2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestNewClusterAllocs pins what NewCluster costs on a built-in
// platform. Its machines run on the platform's shared memory system
// (memsys.Builtin), so it builds no platform, profile or System: it
// allocates at most 7 times for the simulation, the fabric and the
// cluster, and 7 times per machine (the machine, its topology handle, its
// flow manager, and the manager's active set, streams and rates, sized
// from the platform).
func TestNewClusterAllocs(t *testing.T) {
	for _, n := range []int{1, 4} {
		got := testing.AllocsPerRun(20, func() {
			if _, err := NewCluster("henri", n); err != nil {
				t.Fatal(err)
			}
		})
		if want := float64(7 + 7*n); got > want {
			t.Errorf("NewCluster(henri, %d) allocates %v times, want at most %v", n, got, want)
		}
	}
	c := newTestCluster(t)
	sys, _ := memsys.Builtin(c.Platform())
	for _, m := range c.machines {
		if m.Sys != sys {
			t.Errorf("machine %d runs on its own memory system, not the built-in one", m.ID)
		}
	}
}

func TestRunRankPanic(t *testing.T) {
	c := newTestCluster(t)
	_, err := c.Run(1, func(ctx *RankCtx) {
		if ctx.Rank() == 0 {
			panic("boom in rank 0")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "boom in rank 0") {
		t.Fatalf("panic not surfaced: %v", err)
	}
}

func TestRunTwiceRejected(t *testing.T) {
	c := newTestCluster(t)
	if _, err := c.Run(1, func(ctx *RankCtx) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(1, func(ctx *RankCtx) {}); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestRunDeadlockDiagnosis(t *testing.T) {
	c := newTestCluster(t)
	_, err := c.Run(1, func(ctx *RankCtx) {
		if ctx.Rank() == 0 {
			// Nobody ever sends: a guaranteed deadlock.
			_, _ = ctx.Recv(1, 9, 1*MiB, 0)
		}
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want *DeadlockError, got %v", err)
	}
	if len(dl.Stuck) != 1 {
		t.Fatalf("stuck = %v, want exactly the blocked rank", dl.Stuck)
	}
	ws := dl.Stuck[0]
	if !strings.Contains(ws.Reason, "Recv(src=1, tag=9)") {
		t.Errorf("wait reason %q does not name the blocked operation", ws.Reason)
	}
	if !strings.Contains(err.Error(), "Recv(src=1, tag=9)") {
		t.Errorf("error text %q lacks the operation diagnosis", err)
	}
}

func TestWatchdogSimTimeBudget(t *testing.T) {
	c := newTestCluster(t).WithWatchdog(0.5, 0)
	_, err := c.Run(1, func(ctx *RankCtx) {
		for i := 0; i < 1000; i++ {
			ctx.Sleep(0.1)
		}
	})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if be.Kind != "sim-time" {
		t.Errorf("kind = %q, want sim-time", be.Kind)
	}
	if be.At > 0.5 {
		t.Errorf("tripped at t=%v, after the budget", be.At)
	}
}

func TestWatchdogEventBudget(t *testing.T) {
	c := newTestCluster(t).WithWatchdog(0, 10)
	_, err := c.Run(1, func(ctx *RankCtx) {
		for i := 0; i < 1000; i++ {
			ctx.Sleep(1e-6)
		}
	})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if be.Kind != "event-count" {
		t.Errorf("kind = %q, want event-count", be.Kind)
	}
	if be.Events < 10 {
		t.Errorf("events = %d, want >= 10", be.Events)
	}
}

func TestRecvTimeout(t *testing.T) {
	c := newTestCluster(t).WithResilience(Resilience{OpTimeout: 0.25})
	var opErr error
	_, err := c.Run(1, func(ctx *RankCtx) {
		if ctx.Rank() == 0 {
			_, opErr = ctx.Recv(1, 3, 1*MiB, 0)
		}
	})
	if err != nil {
		t.Fatalf("run failed outright: %v", err)
	}
	var oe *MPIOpError
	if !errors.As(opErr, &oe) {
		t.Fatalf("want *MPIOpError, got %v", opErr)
	}
	if !errors.Is(opErr, ErrMPITimeout) {
		t.Errorf("cause = %v, want ErrMPITimeout", oe.Err)
	}
	if oe.Rank != 0 {
		t.Errorf("rank = %d, want 0", oe.Rank)
	}
	if oe.Time < 0.25 {
		t.Errorf("failed at t=%v, before the timeout", oe.Time)
	}
	if !strings.Contains(oe.Op, "Recv(src=1, tag=3)") {
		t.Errorf("op = %q, want the receive named", oe.Op)
	}
}

// dropPlan loses every message in [0, until); seeded deterministically.
func dropPlan(until float64) *FaultPlan {
	return &FaultPlan{Seed: 11, Events: []FaultEvent{
		{At: 0, Kind: "msg-drop", Probability: 1, Duration: until},
	}}
}

func TestDropRetrySucceeds(t *testing.T) {
	// The drop window closes at 1 ms; with retries backing off past it,
	// the transfer must eventually go through and the job complete.
	c := newTestCluster(t).
		WithFaults(dropPlan(0.001)).
		WithResilience(Resilience{MaxRetries: 8, RetryBackoff: 0.0005})
	var sendErr, recvErr error
	_, err := c.Run(1, func(ctx *RankCtx) {
		switch ctx.Rank() {
		case 0:
			sendErr = ctx.Send(1, 1, 4*MiB, 0, nil)
		case 1:
			_, recvErr = ctx.Recv(0, 1, 4*MiB, 0)
		}
	})
	if err != nil || sendErr != nil || recvErr != nil {
		t.Fatalf("retries did not recover the drop: run=%v send=%v recv=%v", err, sendErr, recvErr)
	}
}

func TestDropRetriesExhausted(t *testing.T) {
	// The drop window never closes; retries must give up with a
	// structured error naming rank, operation and simulated time.
	c := newTestCluster(t).
		WithFaults(dropPlan(0)). // duration 0: permanent
		WithResilience(Resilience{MaxRetries: 2, RetryBackoff: 0.0001})
	var sendErr, recvErr error
	_, err := c.Run(1, func(ctx *RankCtx) {
		switch ctx.Rank() {
		case 0:
			sendErr = ctx.Send(1, 1, 4*MiB, 0, nil)
		case 1:
			_, recvErr = ctx.Recv(0, 1, 4*MiB, 0)
		}
	})
	if err != nil {
		t.Fatalf("run failed outright: %v", err)
	}
	for name, opErr := range map[string]error{"send": sendErr, "recv": recvErr} {
		var oe *MPIOpError
		if !errors.As(opErr, &oe) {
			t.Fatalf("%s: want *MPIOpError, got %v", name, opErr)
		}
		if !errors.Is(opErr, ErrMessageDropped) {
			t.Errorf("%s: cause = %v, want ErrMessageDropped", name, oe.Err)
		}
		if oe.Time <= 0 {
			t.Errorf("%s: no simulated failure time", name)
		}
	}
}

func TestNodeCrash(t *testing.T) {
	plan := &FaultPlan{Seed: 3, Events: []FaultEvent{
		{At: 0, Kind: "node-crash", Machine: 1},
	}}
	c := newTestCluster(t).
		WithFaults(plan).
		WithResilience(Resilience{OpTimeout: 0.5})
	var sendErr error
	var recvErr error
	_, err := c.Run(1, func(ctx *RankCtx) {
		switch ctx.Rank() {
		case 0:
			_, recvErr = ctx.Recv(1, 1, 1*MiB, 0)
		case 1:
			sendErr = ctx.Send(0, 1, 1*MiB, 0, nil)
		}
	})
	if err != nil {
		t.Fatalf("run failed outright: %v", err)
	}
	// The crashed rank fails fast with the crash diagnosis...
	var down *NodeDownError
	if !errors.As(sendErr, &down) {
		t.Fatalf("send on crashed machine: want NodeDownError cause, got %v", sendErr)
	}
	if down.Machine != 1 {
		t.Errorf("down machine = %d, want 1", down.Machine)
	}
	// ...and the healthy peer times out instead of hanging forever.
	if !errors.Is(recvErr, ErrMPITimeout) {
		t.Errorf("recv from crashed machine: want timeout, got %v", recvErr)
	}
}

// TestNodeCrashMidTransfer: machine 1 crashes 1 ms into a 256 MiB
// rendezvous transfer, freezing its half of the message in flight. Both
// ranks time out, and the frozen transfer leaves nothing behind that Run
// could report as stuck.
func TestNodeCrashMidTransfer(t *testing.T) {
	plan := &FaultPlan{Seed: 3, Events: []FaultEvent{
		{At: 0.001, Kind: "node-crash", Machine: 1},
	}}
	c := newTestCluster(t).
		WithFaults(plan).
		WithResilience(Resilience{OpTimeout: 0.5})
	var sendErr, recvErr error
	_, err := c.Run(1, func(ctx *RankCtx) {
		switch ctx.Rank() {
		case 0:
			sendErr = ctx.Send(1, 1, 256*MiB, 0, nil)
		case 1:
			_, recvErr = ctx.Recv(0, 1, 256*MiB, 0)
		}
	})
	if err != nil {
		t.Fatalf("run failed outright: %v", err)
	}
	for name, opErr := range map[string]error{"send": sendErr, "recv": recvErr} {
		if !errors.Is(opErr, ErrMPITimeout) {
			t.Errorf("%s: want ErrMPITimeout, got %v", name, opErr)
		}
	}
}

func TestWithFaultsUnknownMachine(t *testing.T) {
	plan := &FaultPlan{Events: []FaultEvent{
		{At: 0, Kind: "node-crash", Machine: 7},
	}}
	c := newTestCluster(t).WithFaults(plan)
	if _, err := c.Run(1, func(ctx *RankCtx) {}); err == nil {
		t.Fatal("plan targeting machine 7 accepted on a 2-machine cluster")
	}
}

// runFaultedJob runs a fixed overlap job under a multi-fault plan with
// full telemetry and returns the rendered Prometheus and JSONL exports.
func runFaultedJob(t *testing.T, plan *FaultPlan) (string, string) {
	t.Helper()
	reg := NewRegistry()
	rec := NewTraceRecorder()
	c := newTestCluster(t).WithRegistry(reg)
	c.WithObserver(rec).
		WithFaults(plan).
		WithResilience(Resilience{OpTimeout: 2, MaxRetries: 4, RetryBackoff: 0.0005}).
		WithWatchdog(10, 0)
	_, err := c.Run(1, func(ctx *RankCtx) {
		switch ctx.Rank() {
		case 0:
			req, rerr := ctx.Irecv(1, 1, 8*MiB, 0)
			if rerr != nil {
				t.Error(rerr)
				return
			}
			work := Assignment{
				Kernel: DefaultKernel(),
				Cores:  ctx.Machine().Topo.SocketSet(0).Take(2),
				Node:   0,
			}
			if _, cerr := ctx.Compute(work, 32*MiB); cerr != nil {
				t.Error(cerr)
			}
			if _, werr := ctx.Wait(req); werr != nil {
				t.Error(werr)
			}
		case 1:
			if serr := ctx.Send(0, 1, 8*MiB, 0, nil); serr != nil {
				t.Error(serr)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var prom, jsonl bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	return prom.String(), jsonl.String()
}

func goldenPlan() *FaultPlan {
	return &FaultPlan{Seed: 99, Events: []FaultEvent{
		{At: 0.0001, Kind: "link-degrade", Factor: 0.5, Duration: 0.01},
		{At: 0.0002, Kind: "link-latency", Extra: 5e-6, Jitter: 0.2, Duration: 0.01},
		{At: 0.0003, Kind: "msg-delay", Extra: 1e-4, Probability: 0.5, Duration: 0.01},
		{At: 0.0004, Kind: "core-slowdown", Machine: 0, Factor: 0.5, Duration: 0.01},
	}}
}

// TestFaultInjectionDeterministic is the golden determinism guarantee:
// the same plan and seed produce byte-identical telemetry, twice over.
func TestFaultInjectionDeterministic(t *testing.T) {
	promA, jsonlA := runFaultedJob(t, goldenPlan())
	promB, jsonlB := runFaultedJob(t, goldenPlan())
	if promA != promB {
		t.Error("Prometheus exports differ across identical faulted runs")
	}
	if jsonlA != jsonlB {
		t.Error("JSONL traces differ across identical faulted runs")
	}
	if !strings.Contains(jsonlA, `"fault"`) {
		t.Error("trace carries no fault events")
	}
	if !strings.Contains(jsonlA, "fault-on: link-degrade") {
		t.Error("trace lacks the fault activation label")
	}
	if !strings.Contains(promA, "memcontention_faults_applied_total 4") {
		t.Error("fault metrics missing from the exposition")
	}
}

// TestNilPlanIsIdentity: attaching a nil plan must not change a single
// byte of the run's outputs relative to never calling WithFaults.
func TestNilPlanIsIdentity(t *testing.T) {
	run := func(withNilPlan bool) (string, string) {
		reg := NewRegistry()
		rec := NewTraceRecorder()
		c := newTestCluster(t).WithRegistry(reg)
		c.WithObserver(rec)
		if withNilPlan {
			c.WithFaults(nil)
		}
		_, err := c.Run(1, func(ctx *RankCtx) {
			switch ctx.Rank() {
			case 0:
				if serr := ctx.Send(1, 1, 8*MiB, 0, nil); serr != nil {
					t.Error(serr)
				}
			case 1:
				if _, rerr := ctx.Recv(0, 1, 8*MiB, 0); rerr != nil {
					t.Error(rerr)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		var prom, jsonl bytes.Buffer
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		return prom.String(), jsonl.String()
	}
	promBare, jsonlBare := run(false)
	promNil, jsonlNil := run(true)
	if promBare != promNil {
		t.Error("nil plan changed the metrics export")
	}
	if jsonlBare != jsonlNil {
		t.Error("nil plan changed the trace")
	}
}

func TestWithContextCancelsRun(t *testing.T) {
	c, err := NewCluster("henri", 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.WithContext(ctx)
	_, err = c.Run(1, func(r *RankCtx) {
		r.Barrier()
	})
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v does not unwrap to context.Canceled", err)
	}
}
