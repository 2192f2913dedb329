package eval

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"memcontention/internal/export"
	"memcontention/internal/model"
)

// FigurePoint is one x position of a figure subplot: measured bandwidths
// (alone and parallel) plus model predictions, as plotted in Figures 3–8.
type FigurePoint struct {
	N         int     `json:"n"`
	CompAlone float64 `json:"comp_alone"`
	CommAlone float64 `json:"comm_alone"`
	CompPar   float64 `json:"comp_par"`
	CommPar   float64 `json:"comm_par"`
	PredComp  float64 `json:"pred_comp"`
	PredComm  float64 `json:"pred_comm"`
}

// FigureSubplot is one placement's panel.
type FigureSubplot struct {
	Placement model.Placement `json:"placement"`
	IsSample  bool            `json:"is_sample"`
	Points    []FigurePoint   `json:"points"`
}

// Figure is the full multi-panel dataset for one platform (Figures 3–8).
type Figure struct {
	Name     string          `json:"name"`
	Platform string          `json:"platform"`
	Subplots []FigureSubplot `json:"subplots"`
}

// FigureFor assembles the figure dataset from a platform evaluation.
// name is the paper's figure label (e.g. "figure3").
func FigureFor(name string, r *PlatformResult) *Figure {
	fig := &Figure{Name: name, Platform: r.Platform, Subplots: make([]FigureSubplot, 0, len(r.Placements))}
	for _, pr := range r.Placements {
		sp := FigureSubplot{Placement: pr.Placement, IsSample: pr.IsSample, Points: make([]FigurePoint, 0, len(pr.Measured.Points))}
		for i, pt := range pr.Measured.Points {
			sp.Points = append(sp.Points, FigurePoint{
				N:         pt.N,
				CompAlone: pt.CompAlone,
				CommAlone: pt.CommAlone,
				CompPar:   pt.CompPar,
				CommPar:   pt.CommPar,
				PredComp:  pr.Predicted[i].Comp,
				PredComm:  pr.Predicted[i].Comm,
			})
		}
		fig.Subplots = append(fig.Subplots, sp)
	}
	return fig
}

const figureHeader = "platform,comp_node,comm_node,is_sample,n," +
	"comp_alone,comm_alone,comp_par,comm_par,pred_comp,pred_comm\n"

// WriteCSV emits the figure as one flat CSV (subplot columns included),
// built in one buffer and written once.
func (f *Figure) WriteCSV(w io.Writer) error {
	platform, err := csvField(f.Platform)
	if err != nil {
		return err
	}
	rows := 0
	for _, sp := range f.Subplots {
		rows += len(sp.Points)
	}
	b := make([]byte, 0, len(figureHeader)+rows*(len(platform)+csvRowBytes))
	b = append(b, figureHeader...)
	for _, sp := range f.Subplots {
		for _, p := range sp.Points {
			b = append(append(b, platform...), ',')
			b = append(strconv.AppendInt(b, int64(sp.Placement.Comp), 10), ',')
			b = append(strconv.AppendInt(b, int64(sp.Placement.Comm), 10), ',')
			b = append(strconv.AppendBool(b, sp.IsSample), ',')
			b = strconv.AppendInt(b, int64(p.N), 10)
			b = appendGBsCells(b, p.CompAlone, p.CommAlone, p.CompPar, p.CommPar, p.PredComp, p.PredComm)
		}
	}
	_, err = w.Write(b)
	return err
}

// csvRowBytes is a generous size for one CSV row past its platform field;
// a wider row only costs a regrowth of the buffer.
const csvRowBytes = 96

// appendGBsCells appends each value as a ",%.2f" cell and ends the row.
func appendGBsCells(b []byte, vals ...float64) []byte {
	for _, v := range vals {
		b = export.AppendGBs(append(b, ','), v)
	}
	return append(b, '\n')
}

// csvField renders s as one CSV field, quoted exactly as encoding/csv
// quotes it: platform names come from user platform files. A name of
// printable ASCII without a comma, a quote or a leading space, other
// than `\.`, is one encoding/csv writes as is, and is returned as is
// without building a writer.
func csvField(s string) (string, error) {
	plain := s != `\.`
	for i := 0; i < len(s) && plain; i++ {
		c := s[i]
		plain = c > ' ' && c <= '~' && c != ',' && c != '"' || c == ' ' && i > 0
	}
	if plain {
		return s, nil
	}
	var b strings.Builder
	cw := csv.NewWriter(&b)
	if err := cw.Write([]string{s}); err != nil {
		return "", err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return "", err
	}
	return strings.TrimSuffix(b.String(), "\n"), nil
}

// StackedPoint is one x position of the Figure 2 stacked representation:
// the parallel bandwidths stacked (comp at the bottom, comm on top) plus
// the compute-alone curve.
type StackedPoint struct {
	N          int     `json:"n"`
	CompPar    float64 `json:"comp_par"`
	CommPar    float64 `json:"comm_par"`
	TotalPar   float64 `json:"total_par"`
	CompAlone  float64 `json:"comp_alone"`
	PredTotalT float64 `json:"pred_total_t"` // the model's T(n) capacity
}

// Stacked is the Figure 2 dataset: the stacked series plus the model's
// characteristic points annotated on the plot.
type Stacked struct {
	Platform  string          `json:"platform"`
	Placement model.Placement `json:"placement"`
	Points    []StackedPoint  `json:"points"`
	// The annotated parameter points of Figure 2.
	Params model.Params `json:"params"`
}

// StackedFor builds the Figure 2 dataset from a platform evaluation for
// one placement (the paper uses henri-subnuma comp@0/comm@0).
func StackedFor(r *PlatformResult, pl model.Placement) (*Stacked, error) {
	params := r.Model.Local
	if int(pl.Comp) >= r.Model.NodesPerSocket {
		params = r.Model.Remote
	}
	for _, pr := range r.Placements {
		if pr.Placement != pl {
			continue
		}
		st := &Stacked{Platform: r.Platform, Placement: pl, Params: params}
		for _, pt := range pr.Measured.Points {
			st.Points = append(st.Points, StackedPoint{
				N:          pt.N,
				CompPar:    pt.CompPar,
				CommPar:    pt.CommPar,
				TotalPar:   pt.TotalPar(),
				CompAlone:  pt.CompAlone,
				PredTotalT: params.TotalBandwidth(pt.N),
			})
		}
		return st, nil
	}
	return nil, fmt.Errorf("eval: placement %v not in results for %s", pl, r.Platform)
}

const stackedHeader = "n,comp_par,comm_par,total_par,comp_alone,model_T\n"

// WriteCSV emits the stacked dataset, built in one buffer and written
// once.
func (s *Stacked) WriteCSV(w io.Writer) error {
	b := make([]byte, 0, len(stackedHeader)+len(s.Points)*csvRowBytes)
	b = append(b, stackedHeader...)
	for _, p := range s.Points {
		b = strconv.AppendInt(b, int64(p.N), 10)
		b = appendGBsCells(b, p.CompPar, p.CommPar, p.TotalPar, p.CompAlone, p.PredTotalT)
	}
	_, err := w.Write(b)
	return err
}

// PaperFigure is one figure of the paper's evaluation section and the
// platform it draws.
type PaperFigure struct {
	Number   int
	Name     string // the figure's label and file stem, "figure<Number>"
	Platform string
	// Stacked marks Figure 2: the stacked bandwidths of one placement,
	// comp@0/comm@0 (StackedFor), where Figures 3–8 draw every placement
	// of their platform (FigureFor).
	Stacked bool
}

// PaperFigures are Figures 2–8 in order.
var PaperFigures = []PaperFigure{
	{Number: 2, Name: "figure2", Platform: "henri-subnuma", Stacked: true},
	{Number: 3, Name: "figure3", Platform: "henri"},
	{Number: 4, Name: "figure4", Platform: "henri-subnuma"},
	{Number: 5, Name: "figure5", Platform: "diablo"},
	{Number: 6, Name: "figure6", Platform: "occigen"},
	{Number: 7, Name: "figure7", Platform: "pyxis"},
	{Number: 8, Name: "figure8", Platform: "dahu"},
}

// WriteCSV writes the figure's dataset, drawn from r, the evaluation of
// f.Platform.
func (f PaperFigure) WriteCSV(w io.Writer, r *PlatformResult) error {
	if !f.Stacked {
		return FigureFor(f.Name, r).WriteCSV(w)
	}
	st, err := StackedFor(r, model.Placement{Comp: 0, Comm: 0})
	if err != nil {
		return err
	}
	return st.WriteCSV(w)
}
