package checkpoint

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"
)

func TestSignalContextAndIsCanceled(t *testing.T) {
	ctx, stop := SignalContext()
	defer stop()
	if err := ctx.Err(); err != nil {
		t.Fatalf("fresh signal context already canceled: %v", err)
	}
	if !IsCanceled(context.Canceled) || IsCanceled(os.ErrNotExist) || IsCanceled(nil) {
		t.Fatal("IsCanceled misclassifies")
	}
}

func TestReport(t *testing.T) {
	var buf bytes.Buffer
	if code := Report(&buf, "cmd", nil); code != 0 || buf.Len() != 0 {
		t.Fatalf("nil error: code=%d output=%q", code, buf.String())
	}
	buf.Reset()
	if code := Report(&buf, "cmd", context.Canceled); code != ExitInterrupted {
		t.Fatalf("canceled: code=%d", code)
	}
	if buf.String() != "cmd: interrupted\n" {
		t.Fatalf("cancellation epilogue = %q", buf.String())
	}
	buf.Reset()
	if code := Report(&buf, "cmd", errors.New("boom")); code != 1 {
		t.Fatalf("failure: code=%d", code)
	}
	if !strings.Contains(buf.String(), "cmd: boom") {
		t.Fatalf("failure epilogue = %q", buf.String())
	}
}

// TestSignalContextTwoStage proves the two-stage shutdown: the first
// signal cancels the context (graceful drain), the second hard-exits
// with status 130. The exit is injected so the test survives it.
func TestSignalContextTwoStage(t *testing.T) {
	exited := make(chan int, 1)
	ctx, stop := signalContext(func(code int) { exited <- code })
	defer stop()

	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	<-ctx.Done()
	select {
	case code := <-exited:
		t.Fatalf("first signal already exited with %d", code)
	default:
	}

	if err := p.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if code := <-exited; code != ExitInterrupted {
		t.Fatalf("second signal exited with %d, want %d", code, ExitInterrupted)
	}
}

// TestSignalContextStopReleases proves stop retires the watcher: after
// stop, the context is canceled but signals no longer reach the exit.
func TestSignalContextStopReleases(t *testing.T) {
	exited := make(chan int, 1)
	ctx, stop := signalContext(func(code int) { exited <- code })
	stop()
	<-ctx.Done()
	stop() // idempotent
	select {
	case code := <-exited:
		t.Fatalf("stopped watcher exited with %d", code)
	default:
	}
}
