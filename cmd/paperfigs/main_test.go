package main

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"memcontention/internal/bench"
	"memcontention/internal/campaign"
	"memcontention/internal/checkpoint"
	"memcontention/internal/obs"
	"memcontention/internal/report"
	"memcontention/internal/topology"
)

func TestTable2ToWriter(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, options{table: 1, seed: 1, replications: 1}, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no output for -table 1")
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
	if err := run(context.Background(), &bytes.Buffer{}, options{out: out, seed: 2, workers: 2, replications: 1}, &obs.CLI{}); err != nil {
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

// TestDispatchRejectsBadUsage: a negative -workers, a -table other than
// 1 or 2, a negative -replications, and -fig with -replications > 1 (a
// figure shows one seed), are refused before any evaluation runs; on the
// canceled context an evaluation would fail with a cancellation instead.
func TestDispatchRejectsBadUsage(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, o := range []options{
		{table: 1, seed: 1, workers: -1, replications: 1},
		{table: 3, seed: 1, replications: 1},
		{seed: 1, replications: -1},
		{fig: 3, seed: 1, replications: 2},
	} {
		var out bytes.Buffer
		err := dispatch(ctx, &out, o, nil)
		if err == nil || checkpoint.IsCanceled(err) || out.Len() != 0 {
			t.Errorf("%+v: got %v (output %q), want a usage error before any evaluation", o, err, out.String())
		}
	}
}
