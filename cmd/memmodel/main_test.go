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
	return options{platform: "henri", seed: 1, robustTrials: 1}
}

// TestInterruptFlushesTraceAndResumes: a cancellation still flushes the
// telemetry outputs, including a `checkpoint` trace event labelled
// "interrupted" recording the cut, and returns the cancellation.
func TestInterruptFlushesTraceAndResumes(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, &bytes.Buffer{}, testOptions(), &obs.CLI{TracePath: tracePath})
	if !checkpoint.IsCanceled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("interrupted run did not flush the trace: %v", err)
	}
	if !strings.Contains(string(traceData), `"kind":"checkpoint"`) ||
		!strings.Contains(string(traceData), `"label":"interrupted"`) {
		t.Fatalf("trace lacks the checkpoint event:\n%s", traceData)
	}
}

func TestPredictionOutput(t *testing.T) {
	o := testOptions()
	o.n = 4
	o.comp, o.comm = 0, 1
	var out bytes.Buffer
	if err := run(context.Background(), &out, o, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "n=4") {
		t.Fatalf("unexpected output: %s", out.String())
	}
}

// TestReplicationSweepOutput: -replications prints the mean ± CI table,
// the same bytes on every run, and a negative -workers or -replications
// is refused.
func TestReplicationSweepOutput(t *testing.T) {
	o := testOptions()
	o.replications = 2
	o.workers = 2
	var out bytes.Buffer
	if err := run(context.Background(), &out, o, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "MEAN ± 95% CI OVER 2 SEEDS") || !strings.Contains(s, "henri") {
		t.Fatalf("replication table missing:\n%s", s)
	}
	var again bytes.Buffer
	if err := run(context.Background(), &again, o, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Fatal("replication sweep is not deterministic")
	}
	o.workers = -1
	if err := run(context.Background(), &bytes.Buffer{}, o, &obs.CLI{}); err == nil {
		t.Fatal("a negative -workers must be rejected")
	}
	o.workers, o.replications = 2, -1
	if err := run(context.Background(), &bytes.Buffer{}, o, &obs.CLI{}); err == nil {
		t.Fatal("a negative -replications must be rejected")
	}
}

// TestRobustTrialsRejected: -robust-trials below 1, a negative -n and a
// placement node without -n are usage errors, refused before any work,
// instead of output headed with a count the robustness sweep did not
// average or a calibration table that silently drops the flag.
func TestRobustTrialsRejected(t *testing.T) {
	for _, tc := range []struct {
		want string // the error's prefix
		set  func(*options)
	}{
		{"-robust-trials 0:", func(o *options) { o.robust, o.robustTrials = true, 0 }},
		{"-robust-trials -2:", func(o *options) { o.robust, o.robustTrials = true, -2 }},
		{"-n -1:", func(o *options) { o.n = -1 }},
		{"-comp 7 -comm 0:", func(o *options) { o.comp = 7 }},
		{"-comp 0 -comm 1:", func(o *options) { o.comm = 1 }},
	} {
		o := testOptions()
		tc.set(&o)
		var out bytes.Buffer
		err := run(context.Background(), &out, o, &obs.CLI{})
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("want an error starting %q, got %v", tc.want, err)
		}
		if out.Len() != 0 {
			t.Errorf("%q: rejected run wrote %q", tc.want, out.String())
		}
	}
}
