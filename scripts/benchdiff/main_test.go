package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDoc(t *testing.T, path string, rs []Result) {
	t.Helper()
	b, err := json.Marshal(document{Benchmarks: rs})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestBenchdiff(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	writeDoc(t, basePath, []Result{
		{Package: "p", Name: "BenchmarkStable", NsPerOp: 1000, AllocsPerOp: 10},
		{Package: "p", Name: "BenchmarkFaster", NsPerOp: 1000, AllocsPerOp: 10},
		{Package: "p", Name: "BenchmarkSlower", NsPerOp: 1000, AllocsPerOp: 10},
		{Package: "p", Name: "BenchmarkAllocs", NsPerOp: 1000, AllocsPerOp: 10},
		{Package: "p", Name: "BenchmarkRetired", NsPerOp: 1000, AllocsPerOp: 10},
	})
	freshPath := filepath.Join(dir, "fresh.json")
	writeDoc(t, freshPath, []Result{
		{Package: "p", Name: "BenchmarkStable", NsPerOp: 1100, AllocsPerOp: 10}, // +10%: within 15%
		{Package: "p", Name: "BenchmarkFaster", NsPerOp: 500, AllocsPerOp: 5},   // improvements never fail
		{Package: "p", Name: "BenchmarkSlower", NsPerOp: 1200, AllocsPerOp: 10}, // +20% ns/op: regression
		{Package: "p", Name: "BenchmarkAllocs", NsPerOp: 1000, AllocsPerOp: 13}, // +30% allocs: regression
		{Package: "p", Name: "BenchmarkNew", NsPerOp: 9999, AllocsPerOp: 999},   // no baseline: informational
	})

	var out strings.Builder
	regressions, err := run(&out, basePath, freshPath, nil, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 2 {
		t.Errorf("regressions = %d, want 2\n%s", regressions, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"REGRESSED p.BenchmarkSlower",
		"REGRESSED p.BenchmarkAllocs",
		"ok       p.BenchmarkStable",
		"ok       p.BenchmarkFaster",
		"new      p.BenchmarkNew",
		"absent   p.BenchmarkRetired",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

// TestBenchdiffRounds: repeated entries of one benchmark are rounds, and
// each side is compared by its median, so one slow round on either side
// neither flags nor hides a regression.
func TestBenchdiffRounds(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	writeDoc(t, basePath, []Result{
		{Package: "p", Name: "BenchmarkNoisy", NsPerOp: 1000, AllocsPerOp: 10},
		{Package: "p", Name: "BenchmarkSlower", NsPerOp: 1000, AllocsPerOp: 10},
		{Package: "p", Name: "BenchmarkNoisy", NsPerOp: 1000, AllocsPerOp: 10},
		{Package: "p", Name: "BenchmarkSlower", NsPerOp: 1000, AllocsPerOp: 10},
		{Package: "p", Name: "BenchmarkNoisy", NsPerOp: 1900, AllocsPerOp: 10}, // one slow base round
		{Package: "p", Name: "BenchmarkSlower", NsPerOp: 1000, AllocsPerOp: 10},
	})
	freshPath := filepath.Join(dir, "fresh.json")
	writeDoc(t, freshPath, []Result{
		{Package: "p", Name: "BenchmarkNoisy", NsPerOp: 1050, AllocsPerOp: 10},
		{Package: "p", Name: "BenchmarkNoisy", NsPerOp: 1100, AllocsPerOp: 10},
		{Package: "p", Name: "BenchmarkNoisy", NsPerOp: 2500, AllocsPerOp: 10}, // one slow fresh round
		{Package: "p", Name: "BenchmarkSlower", NsPerOp: 1300, AllocsPerOp: 10},
		{Package: "p", Name: "BenchmarkSlower", NsPerOp: 1250, AllocsPerOp: 10},
		{Package: "p", Name: "BenchmarkSlower", NsPerOp: 900, AllocsPerOp: 10}, // one fast fresh round
	})

	var out strings.Builder
	regressions, err := run(&out, basePath, freshPath, nil, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if regressions != 1 {
		t.Errorf("regressions = %d, want 1\n%s", regressions, report)
	}
	for _, want := range []string{
		"ok       p.BenchmarkNoisy", // medians 1000 -> 1100: +10%
		"REGRESSED p.BenchmarkSlower",
		"1000 ->       1250 ( +25.0%)", // median of 1300, 900, 1250
		"rounds 3/3",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

func TestBenchdiffStdinAndErrors(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	writeDoc(t, basePath, []Result{{Package: "p", Name: "BenchmarkA", NsPerOp: 100}})

	stdin := strings.NewReader(`{"benchmarks":[{"package":"p","name":"BenchmarkA","ns_per_op":90}]}`)
	var out strings.Builder
	regressions, err := run(&out, basePath, "-", stdin, 0.15)
	if err != nil || regressions != 0 {
		t.Errorf("stdin diff: regressions=%d err=%v", regressions, err)
	}

	if _, err := run(&out, basePath, filepath.Join(dir, "missing.json"), nil, 0.15); err == nil {
		t.Error("missing fresh file accepted")
	}
	if _, err := run(&out, basePath, "-", strings.NewReader("{}"), 0.15); err == nil {
		t.Error("empty document accepted")
	}
	if _, err := run(&out, basePath, "-", strings.NewReader(`{"benchmarks":[{"package":"q","name":"BenchmarkB"}]}`), 0.15); err == nil {
		t.Error("disjoint benchmark sets accepted (nothing compared)")
	}
	if _, err := run(&out, basePath, "-", strings.NewReader("{}"), -1); err == nil {
		t.Error("negative tolerance accepted")
	}
}

func TestGrowth(t *testing.T) {
	cases := []struct{ old, new, want float64 }{
		{100, 115, 0.15},
		{100, 90, 0},
		{0, 50, 0}, // no baseline column: not comparable
		{100, 100, 0},
	}
	for _, tc := range cases {
		if got := growth(tc.old, tc.new); got != tc.want {
			t.Errorf("growth(%v, %v) = %v, want %v", tc.old, tc.new, got, tc.want)
		}
	}
}
