package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"memcontention/internal/checkpoint"
	"memcontention/internal/obs"
)

func testOptions() options {
	return options{
		platform:   "henri",
		comp:       -1,
		comm:       -1,
		kernelName: "nt-memset",
		msgSize:    "64MiB",
		seed:       1,
	}
}

// TestCancellationLeavesResumableJournal is the command-level graceful
// shutdown contract: a canceled sweep returns the cancellation error and
// still flushes its telemetry.
func TestCancellationLeavesResumableJournal(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.prom")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, &bytes.Buffer{}, testOptions(), &obs.CLI{MetricsPath: metrics})
	if !checkpoint.IsCanceled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if data, err := os.ReadFile(metrics); err != nil || !bytes.Contains(data, []byte("# TYPE")) {
		t.Fatalf("interrupted run did not flush its metrics: %q (%v)", data, err)
	}
}

func TestSinglePlacementRuns(t *testing.T) {
	o := testOptions()
	o.comp, o.comm = 0, 1
	var out bytes.Buffer
	if err := run(context.Background(), &out, o, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no output")
	}
}
