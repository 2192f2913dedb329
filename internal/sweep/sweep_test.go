package sweep

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	got, err := Map(items, 8, func(x int) (int, error) { return x * x, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d (order must be preserved)", i, v, i*i)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(nil, 4, func(x int) (int, error) { return x, nil })
	if err != nil || len(got) != 0 {
		t.Errorf("empty map = (%v, %v)", got, err)
	}
}

func TestMapNilFunc(t *testing.T) {
	if _, err := Map([]int{1}, 1, (func(int) (int, error))(nil)); err == nil {
		t.Error("nil function must error")
	}
}

func TestMapErrorAborts(t *testing.T) {
	var calls atomic.Int32
	sentinel := errors.New("boom")
	_, err := Map(make([]int, 1000), 2, func(int) (int, error) {
		n := calls.Add(1)
		if n == 3 {
			return 0, sentinel
		}
		return 0, nil
	})
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("error not propagated: %v", err)
	}
	if c := calls.Load(); c >= 1000 {
		t.Errorf("scheduling must abort after the failure, ran %d jobs", c)
	}
}

func TestMapPanicBecomesError(t *testing.T) {
	_, err := Map([]int{1, 2, 3}, 2, func(x int) (int, error) {
		if x == 2 {
			panic("kaboom")
		}
		return x, nil
	})
	if err == nil {
		t.Fatal("panic must surface as error")
	}
	if got := err.Error(); !strings.Contains(got, "kaboom") {
		t.Errorf("panic message lost: %v", got)
	}
}

func TestWorkerClamping(t *testing.T) {
	// More workers than items and non-positive workers must both work.
	for _, workers := range []int{-1, 0, 1, 100} {
		got, err := Map([]int{1, 2}, workers, func(x int) (int, error) { return x + 1, nil })
		if err != nil || len(got) != 2 || got[0] != 2 || got[1] != 3 {
			t.Errorf("workers=%d: got %v, %v", workers, got, err)
		}
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Error("DefaultWorkers must be at least 1")
	}
}

func TestMapCtxCanceledStopsScheduling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	items := make([]int, 100)
	_, err := MapCtx(ctx, items, 1, func(int) (int, error) {
		n := started.Add(1)
		if n == 3 {
			cancel()
		}
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The worker may have drained at most a couple of already-queued
	// jobs past the cancellation point, never the whole input.
	if n := started.Load(); n > 6 {
		t.Fatalf("%d jobs ran after cancellation", n)
	}
}

func TestMapCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := MapCtx(ctx, []int{1, 2, 3}, 2, func(int) (int, error) {
		ran = true
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("pre-canceled context still ran jobs")
	}
}

func TestMapCtxNilContext(t *testing.T) {
	out, err := MapCtx(nil, []int{1, 2}, 2, func(v int) (int, error) { return v * 2, nil })
	if err != nil || len(out) != 2 || out[0] != 2 || out[1] != 4 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}
