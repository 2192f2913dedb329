package eval

import (
	"fmt"

	"memcontention/internal/baseline"
	"memcontention/internal/bench"
	"memcontention/internal/calib"
	"memcontention/internal/export"
	"memcontention/internal/stats"
)

// AblationRow is one predictor's error summary in the E10 study.
type AblationRow struct {
	Name     string  `json:"name"`
	CommMAPE float64 `json:"comm_mape"`
	CompMAPE float64 `json:"comp_mape"`
	Overall  float64 `json:"overall"` // pooled comm+comp MAPE
}

// Ablation runs the E10 study on one platform: calibrate once, then score
// the paper's threshold model and every baseline against the measured
// curves of all placements.
func Ablation(runner *bench.Runner) ([]AblationRow, error) {
	m, err := calib.CalibrateRunner(runner)
	if err != nil {
		return nil, fmt.Errorf("eval: ablation: %w", err)
	}
	curves, err := runner.RunAll()
	if err != nil {
		return nil, fmt.Errorf("eval: ablation: %w", err)
	}
	// Every predictor is scored on the same points: the measured values
	// once, comm then comp, so that each half is one stream's actual
	// series and the whole is the pooled one.
	n := 0
	for _, c := range curves {
		n += len(c.Points)
	}
	actual, pred := make([]float64, 2*n), make([]float64, 2*n)
	commA, compA, commP, compP := actual[:n], actual[n:], pred[:n], pred[n:]
	k := 0
	for _, c := range curves {
		for _, pt := range c.Points {
			commA[k], compA[k] = pt.CommPar, pt.CompPar
			k++
		}
	}
	predictors := baseline.All(m)
	rows := make([]AblationRow, 0, len(predictors))
	for _, p := range predictors {
		k := 0
		for _, c := range curves {
			for _, pt := range c.Points {
				pr, err := p.Predict(pt.N, c.Placement)
				if err != nil {
					return nil, fmt.Errorf("eval: ablation: %s: %w", p.Name(), err)
				}
				commP[k], compP[k] = pr.Comm, pr.Comp
				k++
			}
		}
		row := AblationRow{Name: p.Name()}
		if row.CommMAPE, err = stats.MAPE(commA, commP); err != nil {
			return nil, err
		}
		if row.CompMAPE, err = stats.MAPE(compA, compP); err != nil {
			return nil, err
		}
		if row.Overall, err = stats.MAPE(actual, pred); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationTable renders the study.
func AblationTable(platform string, rows []AblationRow) *export.Table {
	t := export.NewTable(
		fmt.Sprintf("ABLATION — predictor errors on %s (all placements)", platform),
		"Predictor", "Comm MAPE", "Comp MAPE", "Overall",
	)
	t.Grow(len(rows))
	for _, r := range rows {
		t.AddRow(r.Name, export.Pct(r.CommMAPE), export.Pct(r.CompMAPE), export.Pct(r.Overall))
	}
	return t
}
