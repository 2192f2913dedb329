package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
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

// TestPlacementFlagsRejected: a placement node the platform does not
// have, or one of -comp and -comm without the other, is a usage error,
// refused before any work instead of running every placement.
func TestPlacementFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		comp, comm int
		want       string
	}{
		{9, -1, "-comp 9: must be a NUMA node of henri (0-1)"},
		{0, 2, "-comm 2: must be a NUMA node of henri (0-1)"},
		{-2, 0, "-comp -2: must be"},
		{1, -1, "-comp 1 -comm -1: give both"},
		{-1, 0, "-comp -1 -comm 0: give both"},
	} {
		o := testOptions()
		o.comp, o.comm = tc.comp, tc.comm
		var out bytes.Buffer
		err := run(context.Background(), &out, o, &obs.CLI{})
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("-comp %d -comm %d: err = %v, want %q…", tc.comp, tc.comm, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("-comp %d -comm %d: rejected run wrote %q", tc.comp, tc.comm, out.String())
		}
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
