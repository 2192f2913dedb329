// Package checkpoint holds the commands' shutdown contract: SIGINT or
// SIGTERM cancels the run's context (SignalContext), every layer stops
// at its next cancellation check, telemetry still flushes, and the
// command exits with ExitInterrupted (Report); a second signal exits at
// once. Nothing is resumed: artifacts are written atomically, so an
// interrupted run leaves no torn file, and a rerun recomputes
// everything, byte for byte the same.
package checkpoint

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// ExitInterrupted is the process exit status for a run that was
// interrupted (SIGINT/SIGTERM) after flushing its partial results: the
// conventional 128+SIGINT, distinct from the generic failure status 1 so
// wrappers can tell "failed" from "interrupted".
const ExitInterrupted = 130

// SignalContext returns a context canceled on SIGINT or SIGTERM. The
// first signal requests a graceful drain: the context is canceled,
// workers stop at their next cancellation check, and telemetry
// flushes. A second SIGINT/SIGTERM means the user wants out *now* — the
// process exits immediately with status ExitInterrupted, without
// waiting for the drain (artifacts are written atomically, so none is
// left torn, and a rerun recomputes everything). Call stop to release
// the signal handlers.
func SignalContext() (ctx context.Context, stop context.CancelFunc) {
	return signalContext(os.Exit)
}

// signalContext is SignalContext with an injectable exit, so tests can
// observe the second-signal hard exit without dying.
func signalContext(exit func(int)) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go watchSignals(ch, done, cancel, exit)
	var once sync.Once
	stop := func() {
		once.Do(func() {
			signal.Stop(ch)
			close(done)
			cancel()
		})
	}
	return ctx, stop
}

// watchSignals implements the two-stage shutdown: first signal cancels
// (graceful drain), second signal hard-exits with ExitInterrupted. A
// close of done (the caller's stop) retires the watcher at either stage.
func watchSignals(ch <-chan os.Signal, done <-chan struct{}, cancel context.CancelFunc, exit func(int)) {
	select {
	case <-ch:
		cancel()
	case <-done:
		return
	}
	select {
	case <-ch:
		exit(ExitInterrupted)
	case <-done:
	}
}

// IsCanceled reports whether err is (or wraps) a context cancellation —
// the signature of a graceful shutdown rather than a real failure.
func IsCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Report prints a command epilogue for err and returns the status to
// pass to os.Exit: 0 for nil, ExitInterrupted for a graceful shutdown
// ("<cmd>: interrupted" instead of an error dump), 1 for real failures.
func Report(w io.Writer, cmd string, err error) int {
	if err == nil {
		return 0
	}
	if IsCanceled(err) {
		fmt.Fprintf(w, "%s: interrupted\n", cmd)
		return ExitInterrupted
	}
	fmt.Fprintf(w, "%s: %v\n", cmd, err)
	return 1
}
