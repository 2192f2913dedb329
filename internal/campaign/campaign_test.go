package campaign

import (
	"bytes"
	"context"
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

func TestPipelineKillResumeByteIdentical(t *testing.T) {
	// Uninterrupted baseline, no journal.
	baseline, err := Pipeline(Config{Seed: 1}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	baseDir := filepath.Join(t.TempDir(), "base")
	if err := baseline.Write(baseDir); err != nil {
		t.Fatal(err)
	}

	// Kill the campaign after its 3rd journal record, then resume.
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.RecordHook = func(key string, total int) {
		if total == 3 {
			cancel()
		}
	}
	_, err = Pipeline(Config{Seed: 1, Context: ctx, Journal: j}, testNames)
	if !checkpoint.IsCanceled(err) {
		t.Fatalf("interrupted pipeline err = %v, want cancellation", err)
	}
	if j.Len() < 3 {
		t.Fatalf("journal has %d entries at interruption, want >= 3", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal on disk is valid and the resumed run completes.
	j2, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.RecoveredBytes() != 0 {
		t.Fatalf("clean interruption left %d bytes to recover", j2.RecoveredBytes())
	}
	if j2.LoadedEntries() < 3 {
		t.Fatalf("reopened journal has %d entries", j2.LoadedEntries())
	}
	resumed, err := Pipeline(Config{Seed: 1, Journal: j2}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline, resumed) {
		t.Fatal("resumed pipeline result differs from uninterrupted baseline")
	}
	resDir := filepath.Join(t.TempDir(), "resumed")
	if err := resumed.Write(resDir); err != nil {
		t.Fatal(err)
	}

	base, res := readArtifacts(t, baseDir), readArtifacts(t, resDir)
	if len(base) != len(res) || len(base) == 0 {
		t.Fatalf("artifact sets differ: %d vs %d files", len(base), len(res))
	}
	for name, want := range base {
		if !bytes.Equal(want, res[name]) {
			t.Errorf("artifact %s differs between baseline and resumed run", name)
		}
	}
}

func TestPipelineFullyJournaledNeedsNoMeasurement(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	first, err := Pipeline(Config{Seed: 1, Journal: j}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	written := j.Len()
	// Second run over the same journal: every unit is a hit, so nothing
	// new is measured or recorded.
	j.RecordHook = func(key string, _ int) {
		t.Errorf("fully journaled replay recorded %q", key)
	}
	second, err := Pipeline(Config{Seed: 1, Journal: j}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != written {
		t.Fatalf("replay wrote %d new journal entries", j.Len()-written)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("journaled replay differs from original run")
	}
}

func TestCrossCheckUnderFaultPlanJournaled(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cfg := Config{Seed: 1, Journal: j, FaultPlan: testPlan()}
	first, err := CrossCheck(cfg, "henri")
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanSeed != 7 || first.PlanEvents != 2 {
		t.Fatalf("plan metadata not recorded: %+v", first)
	}
	second, err := CrossCheck(cfg, "henri")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("journaled cross-check differs: %+v vs %+v", first, second)
	}
	// A different plan must not hit the journaled outcome.
	other := testPlan()
	other.Seed = 8
	if key, k2 := crossCheckKey(cfg, "henri"), crossCheckKey(Config{FaultPlan: other}, "henri"); key == k2 {
		t.Fatal("different plans share a journal key")
	}
	// Without a plan the key also differs.
	if key, k2 := crossCheckKey(cfg, "henri"), crossCheckKey(Config{}, "henri"); key == k2 {
		t.Fatal("plan and plan-free cross-checks share a journal key")
	}
}

func TestCrossCheckCancellationIsNotJournaled(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = CrossCheck(Config{Journal: j, Context: ctx}, "henri")
	if !checkpoint.IsCanceled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if j.Len() != 0 {
		t.Fatal("canceled cross-check was journaled")
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

// BenchmarkDecodeUnitJournal times the read side of the unit journal: a
// shard journal image holding the six seed-1 testbed evaluation units,
// decoded and merged the way pendingUnits rescans a shard's files and
// RemoteMerge merges the whole set.
func BenchmarkDecodeUnitJournal(b *testing.B) {
	path := filepath.Join(b.TempDir(), "shard-0000.e1.ckpt")
	j, err := checkpoint.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := EvaluatePlatforms(Config{Seed: 1, Journal: j}, TestbedNames()); err != nil {
		b.Fatal(err)
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	image, err := os.ReadFile(path)
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
