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

// TestInterruptFlushesTraceAndResumes: a cancellation mid-campaign still
// flushes the telemetry outputs — including a `checkpoint` trace event
// recording the cut — leaves a resumable journal, and a second invocation
// completes with output identical to an uninterrupted run.
func TestInterruptFlushesTraceAndResumes(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "run.ckpt")
	tracePath := filepath.Join(dir, "trace.jsonl")

	j, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.RecordHook = func(_ string, total int) {
		if total == 1 {
			cancel()
		}
	}
	var interrupted bytes.Buffer
	err = modelCampaign(ctx, &interrupted, j, testOptions(), &obs.CLI{TracePath: tracePath})
	if !checkpoint.IsCanceled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("interrupted run did not flush the trace: %v", err)
	}
	if !strings.Contains(string(traceData), `"kind":"checkpoint"`) ||
		!strings.Contains(string(traceData), "interrupted") {
		t.Fatalf("trace lacks the checkpoint event:\n%s", traceData)
	}

	// Resume through the real journal plumbing; it must complete and
	// match an uninterrupted run byte for byte.
	var resumed bytes.Buffer
	ckpt := &checkpoint.CLI{Path: jpath, Resume: true}
	if err := run(context.Background(), &resumed, testOptions(), ckpt, &obs.CLI{}); err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	var fresh bytes.Buffer
	if err := run(context.Background(), &fresh, testOptions(), &checkpoint.CLI{}, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed.Bytes(), fresh.Bytes()) {
		t.Fatal("resumed output differs from an uninterrupted run")
	}
	if !strings.Contains(resumed.String(), "Calibrated model for henri") {
		t.Fatalf("unexpected output:\n%s", resumed.String())
	}
}

func TestPredictionOutput(t *testing.T) {
	o := testOptions()
	o.n = 4
	o.comp, o.comm = 0, 1
	var out bytes.Buffer
	if err := run(context.Background(), &out, o, &checkpoint.CLI{}, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "n=4") {
		t.Fatalf("unexpected output: %s", out.String())
	}
}

// TestReplicationSweepOutput: -replications prints the mean ± CI table
// and resumes deterministically through the journal.
func TestReplicationSweepOutput(t *testing.T) {
	o := testOptions()
	o.replications = 2
	o.workers = 2
	var out bytes.Buffer
	if err := run(context.Background(), &out, o, &checkpoint.CLI{}, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "MEAN ± 95% CI OVER 2 SEEDS") || !strings.Contains(s, "henri") {
		t.Fatalf("replication table missing:\n%s", s)
	}
	var again bytes.Buffer
	if err := run(context.Background(), &again, o, &checkpoint.CLI{}, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Fatal("replication sweep is not deterministic")
	}
	o.workers = -1
	if err := run(context.Background(), &bytes.Buffer{}, o, &checkpoint.CLI{}, &obs.CLI{}); err == nil {
		t.Fatal("a negative -workers must be rejected")
	}
}
