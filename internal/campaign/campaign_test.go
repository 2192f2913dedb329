package campaign

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"memcontention/internal/checkpoint"
	"memcontention/internal/faults"
	"memcontention/internal/topology"
)

// testNames keeps campaign tests fast: two platforms cover the sample and
// non-sample placement categories.
var testNames = []string{"henri", "henri-subnuma"}

func testPlan() *faults.Plan {
	return &faults.Plan{
		Seed: 7,
		Events: []faults.Event{
			{At: 0.001, Kind: faults.LinkDegrade, Factor: 0.5, Duration: 0.01},
			{At: 0.002, Kind: faults.MsgDelay, Extra: 0.001, Probability: 0.5, Duration: 0.05},
		},
	}
}

// readArtifacts loads every pipeline artifact file of dir keyed by name.
func readArtifacts(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// shardImages reads every shard journal file of the campaign in dir,
// keyed by path.
func shardImages(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := checkpoint.ShardPaths(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = data
	}
	return out
}

// TestPipelineFullyJournaledNeedsNoMeasurement: a campaign directory
// whose every unit is journaled runs nothing when it is run again,
// writes no journal byte, and merges the same artifacts.
func TestPipelineFullyJournaledNeedsNoMeasurement(t *testing.T) {
	opts := localOpts(t, newRemoteClock())
	first := runLocal(t, Config{Seed: 1, Workers: 2}, opts)
	images := shardImages(t, opts.Dir)
	second := runLocal(t, Config{Seed: 1, Workers: 2}, opts)
	if n := executed(second); n != 0 {
		t.Fatalf("drained directory ran %d units, want 0", n)
	}
	if !reflect.DeepEqual(images, shardImages(t, opts.Dir)) {
		t.Fatal("a run over a drained directory changed its shard journals")
	}
	if !reflect.DeepEqual(first.Artifacts, second.Artifacts) {
		t.Fatal("merge of a drained directory differs from the first merge")
	}
}

// TestCrossCheckUnderFaultPlanJournaled: a lease campaign with a fault
// plan records the cross-check it ran under the plan, and the merge
// returns exactly what a direct CrossCheck computes.
func TestCrossCheckUnderFaultPlanJournaled(t *testing.T) {
	cfg := Config{Seed: 1, Workers: 2, FaultPlan: testPlan()}
	want, err := CrossCheck(cfg, "henri")
	if err != nil {
		t.Fatal(err)
	}
	if want.PlanSeed != 7 || want.PlanEvents != 2 {
		t.Fatalf("plan metadata not recorded: %+v", want)
	}
	res := runLocal(t, cfg, localOpts(t, newRemoteClock()))
	if !reflect.DeepEqual(res.Artifacts.CrossCheck, want) {
		t.Fatalf("merged cross-check %+v, want %+v", res.Artifacts.CrossCheck, want)
	}
}

// TestCrossCheckKeyNamesPlan: the cross-check key holds the fault plan,
// so a campaign never takes one plan's outcome for another's.
func TestCrossCheckKeyNamesPlan(t *testing.T) {
	cfg := Config{FaultPlan: testPlan()}
	other := testPlan()
	other.Seed = 8
	if key, k2 := crossCheckKey(cfg, "henri"), crossCheckKey(Config{FaultPlan: other}, "henri"); key == k2 {
		t.Fatal("different plans share a journal key")
	}
	if key, k2 := crossCheckKey(cfg, "henri"), crossCheckKey(Config{}, "henri"); key == k2 {
		t.Fatal("plan and plan-free cross-checks share a journal key")
	}
}

// TestCrossCheckCancellationIsNotJournaled: a cross-check attempt whose
// context is canceled while it runs returns the cancellation, and the
// worker records nothing for it; every unit before it stays journaled.
func TestCrossCheckCancellationIsNotJournaled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := localOpts(t, newRemoteClock())
	opts.Shards = 1
	xcheck := crossCheckKey(Config{}, testNames[0])
	opts.faultHook = func(key string, _ int) error {
		if key == xcheck {
			cancel() // the attempt has started; the unit runs canceled
		}
		return nil
	}
	rep, err := RemoteWorker(Config{Seed: 1, Context: ctx}, opts, testNames)
	if !checkpoint.IsCanceled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	units := mustUnits(t)
	if rep.Units != len(units)-1 {
		t.Fatalf("worker completed %d units, want all %d before the cross-check", rep.Units, len(units)-1)
	}
	set, err := checkpoint.OpenShardSet(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, missing, err := mergeSet(set, units)
	if err != nil || len(entries) != len(units)-1 || len(missing) != 1 || missing[0] != xcheck {
		t.Fatalf("journaled %d units, missing %v (%v); want only %s missing", len(entries), missing, err, xcheck)
	}
}

func TestTestbedNames(t *testing.T) {
	names := TestbedNames()
	if len(names) != len(topology.Testbed()) {
		t.Fatalf("%d names, want %d", len(names), len(topology.Testbed()))
	}
	if names[0] != "henri" {
		t.Fatalf("first platform = %q", names[0])
	}
}

// unitJournal records the six seed-1 testbed evaluations under their
// unit keys in a fresh shard journal and returns its path.
func unitJournal(b *testing.B) string {
	b.Helper()
	cfg := Config{Seed: 1}
	results, err := EvaluatePlatforms(cfg, TestbedNames())
	if err != nil {
		b.Fatal(err)
	}
	units, err := pipelineUnits(cfg.withDefaults(), TestbedNames())
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "shard-0000.e1.ckpt")
	j, err := checkpoint.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	for i, r := range results {
		if err := j.Record(units[i].Key, r); err != nil {
			b.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkDecodeUnitJournal times the read side of the unit journal: a
// shard journal image holding the six seed-1 testbed evaluation units,
// decoded and merged the way pendingUnits rescans a shard's files and
// RemoteMerge merges the whole set.
func BenchmarkDecodeUnitJournal(b *testing.B) {
	image, err := os.ReadFile(unitJournal(b))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(image)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries, err := checkpoint.MergeShards([][]byte{image})
		if err != nil || len(entries) != 6 {
			b.Fatalf("merged %d entries (%v), want the 6 evaluation units", len(entries), err)
		}
	}
}

// BenchmarkRecordUnit times the write side of the unit journal: one
// Journal.Record of a seed-1 evaluation, the way a lease worker commits
// a unit (encode, frame, append, fsync). Its fsync times the disk, so
// the benchmark stays out of make benchdiff.
func BenchmarkRecordUnit(b *testing.B) {
	res, err := EvaluatePlatforms(Config{Seed: 1}, TestbedNames()[:1])
	if err != nil {
		b.Fatal(err)
	}
	j, err := checkpoint.Open(filepath.Join(b.TempDir(), "shard-0000.e1.ckpt"))
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	keys := make([]string, b.N)
	for i := range keys {
		keys[i] = fmt.Sprintf("eval|%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Record(keys[i], res[0]); err != nil {
			b.Fatal(err)
		}
	}
}
