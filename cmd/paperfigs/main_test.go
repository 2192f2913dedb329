package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"memcontention/internal/bench"
	"memcontention/internal/campaign"
	"memcontention/internal/checkpoint"
	"memcontention/internal/obs"
	"memcontention/internal/report"
	"memcontention/internal/topology"
)

// TestOutKillResumeByteIdenticalArtifacts interrupts a -out run
// mid-evaluation and asserts the resumed run writes artifact files byte
// identical to an uninterrupted run's (the golden files).
func TestOutKillResumeByteIdenticalArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full testbed evaluation")
	}
	base := t.TempDir()
	jpath := filepath.Join(base, "run.ckpt")
	j, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.RecordHook = func(_ string, total int) {
		if total == 5 {
			cancel()
		}
	}
	var buf bytes.Buffer
	resumedDir := filepath.Join(base, "resumed")
	err = dispatch(ctx, &buf, options{out: resumedDir, seed: 1, workers: 2, replications: 1}, j, nil)
	if !checkpoint.IsCanceled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	ckpt := &checkpoint.CLI{Path: jpath, Resume: true}
	if err := run(context.Background(), &buf, options{out: resumedDir, seed: 1, workers: 2, replications: 1}, ckpt, &obs.CLI{}); err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	assertSameDir(t, goldenDir, resumedDir)
}

func TestTable2ToWriter(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, options{table: 1, seed: 1, replications: 1}, &checkpoint.CLI{}, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no output for -table 1")
	}
}

// TestShardedOutMatchesSequential drives the -shards path end to end:
// the in-process lease campaign must write -out artifacts byte
// identical to the plain sequential run, -replications must add the
// replication summary artifacts, and the campaign directory must read
// in the fleet monitor like any memworker fleet's: every unit done, one
// drained worker per -workers.
func TestShardedOutMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full testbed evaluation")
	}
	base := t.TempDir()
	seqDir := filepath.Join(base, "seq")
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, options{out: seqDir, seed: 1, workers: 2, replications: 2}, &checkpoint.CLI{}, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}
	shardedDir := filepath.Join(base, "sharded")
	o := options{out: shardedDir, seed: 1, workers: 2, replications: 2, shards: filepath.Join(base, "run")}
	if err := run(context.Background(), &buf, o, &checkpoint.CLI{}, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}
	assertSameDir(t, seqDir, shardedDir)
	if _, err := os.Stat(filepath.Join(shardedDir, "replications.txt")); err != nil {
		t.Fatalf("replicated run wrote no replications.txt: %v", err)
	}

	rep, err := campaign.CollectFleet(campaign.FleetOptions{Dir: o.shards})
	if err != nil || rep.Units == 0 || rep.Done != rep.Units || rep.Quarantined != 0 || rep.Manifest.Shards != 2 {
		t.Fatalf("fleet report %+v (%v), want every unit done over 2 shards", rep, err)
	}
	drained := 0
	for _, w := range rep.Workers {
		if w.State == campaign.WorkerDrained {
			drained++
		}
	}
	if len(rep.Workers) != 2 || drained != 2 {
		t.Fatalf("%d workers, %d drained; want 2 drained", len(rep.Workers), drained)
	}
}

// TestSeedReachesReports: -seed drives the per-platform reports too, not
// only the evaluations — each report must be report.Write over a runner
// at the run's seed.
func TestSeedReachesReports(t *testing.T) {
	if testing.Short() {
		t.Skip("full testbed evaluation")
	}
	out := filepath.Join(t.TempDir(), "out")
	if err := run(context.Background(), &bytes.Buffer{}, options{out: out, seed: 2, workers: 2, replications: 1}, &checkpoint.CLI{}, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}
	results, err := campaign.EvaluatePlatforms(campaign.Config{Seed: 2, Workers: 2}, campaign.TestbedNames())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		plat, err := topology.ByName(r.Platform)
		if err != nil {
			t.Fatal(err)
		}
		runner, err := bench.NewRunner(bench.Config{Platform: plat, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := report.Write(&want, r, runner); err != nil {
			t.Fatal(err)
		}
		name := "report-" + r.Platform + ".txt"
		if got := readDir(t, out)[name]; !bytes.Equal(want.Bytes(), got) || bytes.Equal(readDir(t, goldenDir)[name], got) {
			t.Errorf("%s was not rendered at seed 2", name)
		}
	}
}

// TestDispatchRejectsBadUsage: a negative -workers, and -fig with
// -replications > 1 (a figure shows one seed), are refused before any
// evaluation runs; on the canceled context an evaluation would fail with
// a cancellation instead.
func TestDispatchRejectsBadUsage(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, o := range []options{
		{table: 1, seed: 1, workers: -1, replications: 1},
		{fig: 3, seed: 1, replications: 2},
	} {
		var out bytes.Buffer
		err := dispatch(ctx, &out, o, nil, nil)
		if err == nil || checkpoint.IsCanceled(err) || out.Len() != 0 {
			t.Errorf("%+v: got %v (output %q), want a usage error before any evaluation", o, err, out.String())
		}
	}
}
