package eval

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"memcontention/internal/export"
	"memcontention/internal/model"
	"memcontention/internal/topology"
)

// BenchmarkRenderArtifacts times the render layer alone: the seed-1
// testbed is evaluated once, outside the timed loops, and each
// sub-benchmark renders one group of `paperfigs -out` artifacts into
// io.Discard.
func BenchmarkRenderArtifacts(b *testing.B) {
	results, err := EvaluateTestbed(1)
	if err != nil {
		b.Fatal(err)
	}
	byName := make(map[string]*PlatformResult, len(results))
	for _, r := range results {
		byName[r.Platform] = r
	}
	plats := topology.Testbed()
	run := func(name string, render func() error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := render(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("table1.txt", func() error { return Table1(plats).WriteText(io.Discard) })
	run("table2.txt", func() error { return Table2(results).WriteText(io.Discard) })
	run("table2.json", func() error { return export.WriteJSON(io.Discard, results) })
	run("figure2.csv", func() error {
		st, err := StackedFor(byName["henri-subnuma"], model.Placement{Comp: 0, Comm: 0})
		if err != nil {
			return err
		}
		return st.WriteCSV(io.Discard)
	})
	run("figure3-8.csv", func() error {
		for _, f := range PaperFigures {
			if f.Stacked {
				continue
			}
			if err := FigureFor(f.Name, byName[f.Platform]).WriteCSV(io.Discard); err != nil {
				return err
			}
		}
		return nil
	})
}

// figureCSVRef renders f the way the figure writer used to: fmt cells
// through an encoding/csv Writer. WriteCSV must match it byte for byte.
func figureCSVRef(t *testing.T, f *Figure) string {
	t.Helper()
	var b strings.Builder
	cw := csv.NewWriter(&b)
	records := [][]string{{"platform", "comp_node", "comm_node", "is_sample", "n",
		"comp_alone", "comm_alone", "comp_par", "comm_par", "pred_comp", "pred_comm"}}
	for _, sp := range f.Subplots {
		for _, p := range sp.Points {
			records = append(records, []string{f.Platform,
				fmt.Sprint(int(sp.Placement.Comp)), fmt.Sprint(int(sp.Placement.Comm)),
				fmt.Sprint(sp.IsSample), fmt.Sprint(p.N),
				fmt.Sprintf("%.2f", p.CompAlone), fmt.Sprintf("%.2f", p.CommAlone),
				fmt.Sprintf("%.2f", p.CompPar), fmt.Sprintf("%.2f", p.CommPar),
				fmt.Sprintf("%.2f", p.PredComp), fmt.Sprintf("%.2f", p.PredComm)})
		}
	}
	if err := cw.WriteAll(records); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// syntheticFigure builds a two-panel figure with points rows per panel
// whose cells hit ties, signed zeros and carries.
func syntheticFigure(platform string, points int) *Figure {
	f := &Figure{Name: "figure-x", Platform: platform}
	for s, pl := range []model.Placement{{Comp: 0, Comm: 0}, {Comp: 1, Comm: 3}} {
		sp := FigureSubplot{Placement: pl, IsSample: s == 0}
		for n := 1; n <= points; n++ {
			v := float64(n)
			sp.Points = append(sp.Points, FigurePoint{N: n,
				CompAlone: v * 1.005, CommAlone: 10.125, CompPar: -0.001 * v,
				CommPar: math.Copysign(0, -1), PredComp: 99.995 + v, PredComm: 1 / v})
		}
		f.Subplots = append(f.Subplots, sp)
	}
	return f
}

// TestFigureCSVMatchesEncodingCSV: the figure CSV quotes its platform
// field exactly as encoding/csv does, whatever a user platform file names
// the platform, and formats every other cell as fmt did.
func TestFigureCSVMatchesEncodingCSV(t *testing.T) {
	for _, name := range []string{
		"henri", "a,b", `say "hi"`, "two\nlines", "car\rreturn", "crlf\r\n", " leading",
		`\.`, "", "tab\there", "ünï ∥ code", "trailing ", "inner space", "\tlead", "\vlead",
		"\u00a0nbsp", "ctl\x01char", "~", `\`, `\.\`, "henri-subnuma",
	} {
		f := syntheticFigure(name, 3)
		var got strings.Builder
		if err := f.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if want := figureCSVRef(t, f); got.String() != want {
			t.Errorf("platform %q:\n%q\nencoding/csv:\n%q", name, got.String(), want)
		}
	}
}

func TestStackedCSVMatchesEncodingCSV(t *testing.T) {
	st := &Stacked{Platform: "henri"}
	for n := 1; n <= 20; n++ {
		v := float64(n)
		st.Points = append(st.Points, StackedPoint{N: n, CompPar: v * 2.675, CommPar: 0.125 * v,
			TotalPar: v * 2.8, CompAlone: -0.004, PredTotalT: 9.995 * v})
	}
	var want strings.Builder
	cw := csv.NewWriter(&want)
	_ = cw.Write([]string{"n", "comp_par", "comm_par", "total_par", "comp_alone", "model_T"})
	for _, p := range st.Points {
		_ = cw.Write([]string{fmt.Sprint(p.N), fmt.Sprintf("%.2f", p.CompPar), fmt.Sprintf("%.2f", p.CommPar),
			fmt.Sprintf("%.2f", p.TotalPar), fmt.Sprintf("%.2f", p.CompAlone), fmt.Sprintf("%.2f", p.PredTotalT)})
	}
	cw.Flush()
	var got strings.Builder
	if err := st.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("stacked CSV:\n%s\nencoding/csv:\n%s", got.String(), want.String())
	}
}

// TestCSVFieldPlainNameAllocs: a name encoding/csv writes unquoted, such
// as every Table I platform's, is returned as is, without building a
// CSV writer and its 4 KiB buffer.
func TestCSVFieldPlainNameAllocs(t *testing.T) {
	for _, plat := range topology.Testbed() {
		if allocs := testing.AllocsPerRun(20, func() {
			if got, err := csvField(plat.Name); err != nil || got != plat.Name {
				t.Fatalf("csvField(%q) = %q, %v", plat.Name, got, err)
			}
		}); allocs != 0 {
			t.Errorf("csvField(%q) allocates %v times, want 0", plat.Name, allocs)
		}
	}
}

// TestFigureWriteCSVAllocs: the figure writer allocates a constant
// number of times, however many points the figure has.
func TestFigureWriteCSVAllocs(t *testing.T) {
	allocs := func(points int) float64 {
		f := syntheticFigure("a,b", points)
		return testing.AllocsPerRun(20, func() {
			if err := f.WriteCSV(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4), allocs(4000)
	if small != large || large > 8 {
		t.Errorf("Figure.WriteCSV allocates %v times for 8 rows and %v for 8000, want one constant ≤ 8", small, large)
	}
}
