package plot_test

import (
	"testing"

	"memcontention/internal/eval"
	"memcontention/internal/plot"
	"memcontention/internal/report"
)

// TestReportChartsMatchReference draws every chart of the platform
// reports at noise seeds 1–16, the seed classes the benchmark pins, with
// both renderers.
func TestReportChartsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("16 testbed evaluations")
	}
	n := 0
	for seed := uint64(1); seed <= 16; seed++ {
		results, err := eval.EvaluateTestbed(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			for _, c := range report.SampleCharts(r) {
				n++
				if got, want := c.Render(), plot.RenderRef(c); got != want {
					t.Fatalf("seed %d, %s:\n%s\nreference:\n%s", seed, c.Title, got, want)
				}
			}
		}
	}
	if n != 16*6*4 {
		t.Fatalf("compared %d charts, want 4 per report", n)
	}
}
