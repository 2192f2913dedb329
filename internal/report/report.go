// Package report assembles the complete per-platform evaluation document:
// calibrated parameters, error statistics, the ablation study and compact
// ASCII views of the figures — everything a reader needs to audit one
// platform's reproduction in a single text artifact.
package report

import (
	"io"

	"memcontention/internal/bench"
	"memcontention/internal/eval"
	"memcontention/internal/export"
	"memcontention/internal/plot"
)

const rule = "================================================================\n"

// Write renders the full report for one evaluated platform, built in one
// buffer and written once. A non-nil runner must be configured
// identically to the one that produced the result: it re-runs the
// ablation. A nil runner leaves the ablation out.
func Write(w io.Writer, res *eval.PlatformResult, runner *bench.Runner) error {
	var rows []eval.AblationRow
	if runner != nil {
		var err error
		if rows, err = eval.Ablation(runner); err != nil {
			return err
		}
	}
	// About 7 KB for a testbed platform: the tables, then four charts of
	// about 1.2 KB each.
	b := make([]byte, 0, 8<<10+64*len(res.Placements))
	b = append(append(append(append(b, rule+"PLATFORM REPORT — "...), res.Platform...), '\n'), rule+"\n"...)
	var err error
	table := func(t *export.Table) {
		if err == nil {
			b, err = t.AppendText(b)
		}
	}
	table(export.ParamsTable("Calibrated model (§III-A parameters)", res.Model))
	b = append(b, "\nPrediction errors (Table II row):\n"...)
	table(eval.ErrorTable(res.Errors))
	if runner != nil {
		b = append(b, '\n')
		table(eval.AblationTable(res.Platform, rows))
	}
	b = append(b, "\nPer-placement errors:\n"...)
	table(eval.PlacementTable(res.Placements))
	if err != nil {
		return err
	}
	// Compact figure: each calibration sample's pair of charts.
	for i, c := range SampleCharts(res) {
		if i%2 == 0 {
			b = append(b, '\n')
		}
		b = c.Append(b)
	}
	_, err = w.Write(b)
	return err
}

// SampleCharts returns the report's compact figure: for each of the two
// calibration samples, in placement order, its communication chart and
// its computation chart, each drawing the measured parallel bandwidths
// against the model's.
func SampleCharts(res *eval.PlatformResult) []*plot.Chart {
	var charts []*plot.Chart
	for _, pr := range res.Placements {
		if !pr.IsSample {
			continue
		}
		n := len(pr.Measured.Points)
		ys := make([]float64, 4*n)
		commPar, predComm, compPar, predComp := ys[:n], ys[n:2*n], ys[2*n:3*n], ys[3*n:]
		for i, p := range pr.Measured.Points {
			commPar[i], predComm[i] = p.CommPar, pr.Predicted[i].Comm
			compPar[i], predComp[i] = p.CompPar, pr.Predicted[i].Comp
		}
		pl := pr.Placement.String()
		charts = append(charts,
			plot.New(pl+" — communications, measured vs model (GB/s)").
				Add(plot.Series{Name: "measured", Y: commPar, Marker: 'v'}).
				Add(plot.Series{Name: "model", Y: predComm, Marker: '+'}),
			plot.New(pl+" — computations, measured vs model (GB/s)").
				Add(plot.Series{Name: "measured", Y: compPar, Marker: 'v'}).
				Add(plot.Series{Name: "model", Y: predComp, Marker: '+'}))
	}
	return charts
}
