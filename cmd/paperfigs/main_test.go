package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"memcontention/internal/bench"
	"memcontention/internal/campaign"
	"memcontention/internal/checkpoint"
	"memcontention/internal/obs"
	"memcontention/internal/report"
	"memcontention/internal/topology"
)

// TestOutKillResumeByteIdenticalArtifacts interrupts the lease campaign
// of `-workers 2 -shards` after three units, as SIGINT does, and tears
// the tail of one shard journal, as a kill mid-append does. Re-running
// the command must run exactly the units missing from the journals, the
// torn one included, and write the golden artifacts byte for byte.
func TestOutKillResumeByteIdenticalArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full testbed evaluation")
	}
	base := t.TempDir()
	o := options{out: filepath.Join(base, "out"), seed: 1, workers: 2, replications: 1, shards: filepath.Join(base, "run")}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int32
	stopAfter3 := func(int, string) {
		if done.Add(1) == 3 {
			cancel()
		}
	}
	_, err := campaign.RunLocal(campaign.Config{Seed: o.seed, Workers: o.workers, Context: ctx},
		campaign.RemoteOptions{Dir: o.shards, UnitDone: stopAfter3}, campaign.TestbedNames())
	if !checkpoint.IsCanceled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	lost := tearLargestShardJournal(t, o.shards)

	journaled := map[string]bool{}
	for _, key := range shardJournalKeys(t, o.shards) {
		journaled[key] = true
	}
	before, err := campaign.CollectFleet(campaign.FleetOptions{Dir: o.shards})
	if err != nil {
		t.Fatal(err)
	}
	oldWorkers := map[string]bool{}
	for _, w := range before.Workers {
		oldWorkers[w.Worker] = true
	}

	if err := run(context.Background(), &bytes.Buffer{}, o, &obs.CLI{}); err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	assertSameDir(t, goldenDir, o.out)

	events, err := campaign.ReadEvents(o.shards)
	if err != nil {
		t.Fatal(err)
	}
	rerun := map[string]bool{}
	for _, e := range events {
		if e.Type != campaign.EventUnitDone || oldWorkers[e.Worker] {
			continue
		}
		if journaled[e.Key] || rerun[e.Key] {
			t.Errorf("resumed run re-ran %s, which the journals already held", e.Key)
		}
		rerun[e.Key] = true
	}
	if len(rerun) != before.Pending || !rerun[lost] {
		t.Fatalf("resumed run ran %d units, want the %d missing ones including the torn %s", len(rerun), before.Pending, lost)
	}
}

// tearLargestShardJournal chops the last bytes off the largest shard
// journal in dir and returns the key of the unit this loses.
func tearLargestShardJournal(t *testing.T, dir string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var largest []byte
	var path string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > len(largest) {
			largest, path = data, p
		}
	}
	entries := checkpoint.Decode(largest).Entries
	if len(entries) == 0 {
		t.Fatal("no shard journal holds a unit")
	}
	if err := os.Truncate(path, int64(len(largest)-7)); err != nil {
		t.Fatal(err)
	}
	return entries[len(entries)-1].Key
}

// shardJournalKeys lists the unit keys the shard journals in dir hold.
func shardJournalKeys(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := checkpoint.MergeShardFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	return keys
}

func TestTable2ToWriter(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, options{table: 1, seed: 1, replications: 1}, &obs.CLI{}); err != nil {
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
	if err := run(context.Background(), &buf, options{out: seqDir, seed: 1, workers: 2, replications: 2}, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}
	shardedDir := filepath.Join(base, "sharded")
	o := options{out: shardedDir, seed: 1, workers: 2, replications: 2, shards: filepath.Join(base, "run")}
	if err := run(context.Background(), &buf, o, &obs.CLI{}); err != nil {
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
		err := dispatch(ctx, &out, o, nil)
		if err == nil || checkpoint.IsCanceled(err) || out.Len() != 0 {
			t.Errorf("%+v: got %v (output %q), want a usage error before any evaluation", o, err, out.String())
		}
	}
}
