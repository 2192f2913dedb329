package report

import (
	"io"
	"strings"
	"testing"

	"memcontention/internal/bench"
	"memcontention/internal/eval"
	"memcontention/internal/topology"
)

func TestWriteReport(t *testing.T) {
	runner, err := bench.NewRunner(bench.Config{Platform: topology.Henri(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eval.EvaluateRunner(runner)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Write(&b, res, runner); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"PLATFORM REPORT — henri",
		"Calibrated model",
		"N_par_max",
		"Communications",
		"threshold-model", // ablation included
		"comp@0/comm@0",
		"measured",
		"model",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Exactly the two calibration samples are charted: 2 samples × 2
	// charts each.
	if got := strings.Count(out, "measured vs model"); got != 4 {
		t.Errorf("report has %d contention charts, want 4", got)
	}
}

func TestWriteReportWithoutRunner(t *testing.T) {
	res, err := eval.EvaluatePlatform(bench.Config{Platform: topology.Occigen(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Write(&b, res, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "threshold-model") {
		t.Error("nil runner must skip the ablation section")
	}
}

// TestReportByteStable renders the same evaluated platform twice; the
// report (tables, charts, ablations) must be byte-identical.
func TestReportByteStable(t *testing.T) {
	runner, err := bench.NewRunner(bench.Config{Platform: topology.Henri(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eval.EvaluateRunner(runner)
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	if err := Write(&a, res, runner); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, res, runner); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two renders of the same report differ")
	}
}

// BenchmarkWrite times the report text alone: the six seed-1 testbed
// reports, evaluated once outside the timed loop, rendered into io.Discard
// with a nil runner, so no ablation re-runs the benchmark.
func BenchmarkWrite(b *testing.B) {
	results, err := eval.EvaluateTestbed(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range results {
			if err := Write(io.Discard, r, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}
