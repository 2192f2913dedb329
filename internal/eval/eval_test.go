package eval

import (
	"strings"
	"testing"

	"memcontention/internal/bench"
	"memcontention/internal/model"
	"memcontention/internal/topology"
)

func henriResult(t *testing.T) *PlatformResult {
	t.Helper()
	r, err := EvaluatePlatform(bench.Config{Platform: topology.Henri(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEvaluateHenriStructure(t *testing.T) {
	r := henriResult(t)
	if r.Platform != "henri" {
		t.Error("platform name lost")
	}
	if len(r.Placements) != 4 {
		t.Fatalf("%d placements, want 4", len(r.Placements))
	}
	samples := 0
	for _, pr := range r.Placements {
		if len(pr.Predicted) != len(pr.Measured.Points) {
			t.Error("prediction/measurement length mismatch")
		}
		if pr.IsSample {
			samples++
		}
		if pr.CommMAPE < 0 || pr.CompMAPE < 0 {
			t.Error("negative MAPE")
		}
	}
	if samples != 2 {
		t.Errorf("%d sample placements, want 2", samples)
	}
}

func TestHenriErrorsWithinPaperBallpark(t *testing.T) {
	// The paper's headline: average prediction error below 4 % for
	// communications and below 3 % for computations.
	e := henriResult(t).Errors
	if e.CommAll > 4.0 {
		t.Errorf("henri comm error %.2f%% exceeds the paper's 4%% headline", e.CommAll)
	}
	if e.CompAll > 3.0 {
		t.Errorf("henri comp error %.2f%% exceeds the paper's 3%% ballpark", e.CompAll)
	}
	if e.Average != (e.CommAll+e.CompAll)/2 {
		t.Error("Average must be the mean of the two All columns")
	}
}

func TestSummarizeSplitsCategories(t *testing.T) {
	r := henriResult(t)
	// Pooled "all" must sit between the two category values.
	e := r.Errors
	lo, hi := e.CommSamples, e.CommNonSamples
	if lo > hi {
		lo, hi = hi, lo
	}
	if e.CommAll < lo-1e-9 || e.CommAll > hi+1e-9 {
		t.Errorf("CommAll %.3f outside [%0.3f, %0.3f]", e.CommAll, lo, hi)
	}
}

func TestEvaluateTestbed(t *testing.T) {
	results, err := EvaluateTestbed(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("%d results, want 6", len(results))
	}
	order := []string{"henri", "henri-subnuma", "dahu", "diablo", "pyxis", "occigen"}
	for i, r := range results {
		if r.Platform != order[i] {
			t.Errorf("result %d is %s, want %s (Table I order)", i, r.Platform, order[i])
		}
	}
}

func TestTable2Rendering(t *testing.T) {
	results, err := EvaluateTestbed(1)
	if err != nil {
		t.Fatal(err)
	}
	table := Table2(results)
	if len(table.Rows) != 7 { // 6 platforms + Average
		t.Fatalf("Table II has %d rows, want 7", len(table.Rows))
	}
	if table.Rows[6][0] != "Average" {
		t.Error("last row must be the cross-platform average")
	}
	text := table.String()
	for _, want := range []string{"henri", "pyxis", "occigen", "%"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	table := Table1(topology.Testbed())
	if len(table.Rows) != 6 {
		t.Fatalf("Table I has %d rows", len(table.Rows))
	}
	text := table.String()
	for _, want := range []string{"InfiniBand", "Omni-Path", "NUMA nodes", "EPYC"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestFigureFor(t *testing.T) {
	r := henriResult(t)
	fig := FigureFor("figure3", r)
	if fig.Platform != "henri" || len(fig.Subplots) != 4 {
		t.Fatalf("figure shape wrong: %s, %d subplots", fig.Platform, len(fig.Subplots))
	}
	for _, sp := range fig.Subplots {
		if len(sp.Points) != 18 {
			t.Errorf("subplot %v has %d points", sp.Placement, len(sp.Points))
		}
		for _, p := range sp.Points {
			if p.PredComp <= 0 || p.PredComm <= 0 {
				t.Errorf("subplot %v n=%d: empty predictions", sp.Placement, p.N)
			}
		}
	}
	var csv strings.Builder
	if err := fig.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(csv.String(), "\n")
	if lines != 1+4*18 {
		t.Errorf("figure CSV has %d lines, want %d", lines, 1+4*18)
	}
}

func TestStackedFor(t *testing.T) {
	r := henriResult(t)
	st, err := StackedFor(r, model.Placement{Comp: 0, Comm: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Points) != 18 {
		t.Fatalf("%d stacked points", len(st.Points))
	}
	for _, p := range st.Points {
		if p.TotalPar != p.CompPar+p.CommPar {
			t.Error("stacked total must be the sum")
		}
		if p.PredTotalT <= 0 {
			t.Error("missing model capacity T(n)")
		}
	}
	// Remote placement uses the remote instantiation for T(n).
	stRemote, err := StackedFor(r, model.Placement{Comp: 1, Comm: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stRemote.Params.TParMax == st.Params.TParMax {
		t.Error("remote stacked data must use the remote parameters")
	}
	if _, err := StackedFor(r, model.Placement{Comp: 3, Comm: 3}); err == nil {
		t.Error("unknown placement must error")
	}
	var csv strings.Builder
	if err := st.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "n,comp_par") {
		t.Error("stacked CSV header wrong")
	}
}

func TestTestbedConfigs(t *testing.T) {
	cfgs := TestbedConfigs(9)
	if len(cfgs) != 6 {
		t.Fatalf("%d configs", len(cfgs))
	}
	for _, c := range cfgs {
		if c.Seed != 9 || c.Platform == nil {
			t.Error("config not filled")
		}
	}
}

// BenchmarkEvaluatePlatform times the evaluation layer on henri: a fresh
// runner, calibration, every placement's sweep and its error scoring per
// iteration.
func BenchmarkEvaluatePlatform(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EvaluatePlatform(bench.Config{Platform: topology.Henri(), Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
