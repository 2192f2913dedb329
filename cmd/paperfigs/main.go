// Command paperfigs regenerates every table and figure of the paper's
// evaluation section from the simulated testbed:
//
//	Table I   — platform characteristics
//	Table II  — model prediction errors
//	Figure 2  — stacked bandwidths (henri-subnuma, both streams local)
//	Figures 3–8 — per-platform measured + predicted curves
//
// Usage:
//
//	paperfigs                  # everything, text to stdout
//	paperfigs -table 2         # just Table II
//	paperfigs -fig 4           # just Figure 4 (CSV to stdout)
//	paperfigs -out results/    # write all artifacts as files (CSV/JSON/txt)
//	paperfigs -table 2 -replications 10   # Table II as mean ± 95% CI over 10 seeds
//	paperfigs -workers 8 -out results/    # 8 parallel evaluations, same bytes as 1
//
// SIGINT/SIGTERM stops any run cleanly (exit status 130; a second signal
// exits immediately), and files under -out are written atomically and
// durably, so an interrupted run leaves no torn artifact; rerunning the
// command recomputes everything (see docs/campaigns.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"memcontention/internal/campaign"
	"memcontention/internal/checkpoint"
	"memcontention/internal/eval"
	"memcontention/internal/obs"
	"memcontention/internal/plot"
	"memcontention/internal/topology"
)

// options are paperfigs' parsed command-line inputs.
type options struct {
	table, fig   int
	out          string
	seed         uint64
	workers      int
	replications int
	ascii        bool
}

func main() {
	var o options
	flag.IntVar(&o.table, "table", 0, "emit only this table (1 or 2)")
	flag.IntVar(&o.fig, "fig", 0, "emit only this figure (2..8)")
	flag.StringVar(&o.out, "out", "", "write artifacts into this directory instead of stdout")
	flag.Uint64Var(&o.seed, "seed", 1, "measurement noise seed")
	flag.IntVar(&o.workers, "workers", 0, "parallel evaluations (0: GOMAXPROCS)")
	flag.IntVar(&o.replications, "replications", 1, "Monte-Carlo replication sweep: evaluate this many consecutive seeds and report Table II errors as mean ± 95% CI")
	flag.BoolVar(&o.ascii, "plot", false, "render figures as ASCII charts instead of CSV")
	var cli obs.CLI
	cli.Register(flag.CommandLine, false)
	flag.Parse()

	ctx, stop := checkpoint.SignalContext()
	err := run(ctx, os.Stdout, o, &cli)
	stop()
	if code := checkpoint.Report(os.Stderr, "paperfigs", err); code != 0 {
		os.Exit(code)
	}
}

// run executes the command core with telemetry; split from main so tests
// can drive the full logic with their own context and output sink.
func run(ctx context.Context, w io.Writer, o options, cli *obs.CLI) error {
	if err := cli.Start(); err != nil {
		return err
	}
	reg := cli.NewRegistry()
	man := obs.NewManifest("paperfigs")
	man.Seed = o.seed
	man.Args = os.Args[1:]
	if err := dispatch(ctx, w, o, reg); err != nil {
		// A graceful shutdown still flushes telemetry.
		if checkpoint.IsCanceled(err) {
			_ = cli.Finish(reg, nil, man)
		}
		return err
	}
	return cli.Finish(reg, nil, man)
}

// dispatch renders the requested artifacts, recording telemetry into reg
// (shared by the parallel evaluations; nil disables instrumentation).
func dispatch(ctx context.Context, w io.Writer, o options, reg *obs.Registry) error {
	if o.workers < 0 {
		return fmt.Errorf("-workers %d: must be a non-negative worker count (0: GOMAXPROCS)", o.workers)
	}
	if o.table < 0 || o.table > 2 {
		return fmt.Errorf("-table %d: must be 1 or 2 (0: every table and figure)", o.table)
	}
	if o.replications < 0 {
		return fmt.Errorf("-replications %d: must be a non-negative seed count (0 or 1: one seed)", o.replications)
	}
	if o.table == 1 {
		return eval.Table1(topology.Testbed()).WriteText(w)
	}
	// Everything else needs evaluations: the figure's platform for -fig,
	// the whole testbed otherwise.
	names := campaign.TestbedNames()
	var fig eval.PaperFigure
	if o.table != 2 && o.fig != 0 {
		for _, f := range eval.PaperFigures {
			if f.Number == o.fig {
				fig = f
			}
		}
		if fig.Platform == "" {
			return fmt.Errorf("unknown figure %d (valid: 2..8)", o.fig)
		}
		if o.replications > 1 {
			return errors.New("-replications applies to Table II; a figure shows one seed, so it cannot be combined with -fig")
		}
		names = []string{fig.Platform}
	}
	art, err := evaluate(ctx, o, reg, names)
	if err != nil {
		return err
	}

	switch {
	case o.table == 2:
		if err := eval.Table2(art.Platforms).WriteText(w); err != nil {
			return err
		}
		return writeReplications(w, art.Replications)
	case o.fig != 0:
		if o.ascii && !fig.Stacked {
			return writeASCII(w, eval.FigureFor(fig.Name, art.Platforms[0]))
		}
		return fig.WriteCSV(w, art.Platforms[0])
	case o.out != "":
		if err := art.Write(o.out); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "wrote artifacts to %s\n", o.out)
		return err
	default:
		if err := printAll(w, art.Platforms); err != nil {
			return err
		}
		return writeReplications(w, art.Replications)
	}
}

// evaluate runs the needed platform evaluations on the parallel sweep,
// plus the replication sweep when asked.
func evaluate(ctx context.Context, o options, reg *obs.Registry, names []string) (*campaign.Artifacts, error) {
	cfg := campaign.Config{
		Seed:         o.seed,
		Workers:      o.workers,
		Replications: o.replications,
		Context:      ctx,
		Registry:     reg,
	}
	results, err := campaign.EvaluatePlatforms(cfg, names)
	if err != nil {
		return nil, err
	}
	art := &campaign.Artifacts{Seed: o.seed, Platforms: results}
	if o.replications > 1 {
		if art.Replications, err = campaign.Replicate(cfg, names, results); err != nil {
			return nil, err
		}
	}
	return art, nil
}

// writeReplications renders the replication sweep table (a no-op without
// one).
func writeReplications(w io.Writer, rep *campaign.ReplicationSummary) error {
	if rep == nil {
		return nil
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return rep.Table().WriteText(w)
}

// writeASCII renders each subplot of a figure as two terminal charts
// (communications and computations), the way the paper shows dual-axis
// panels.
func writeASCII(w io.Writer, figure *eval.Figure) error {
	for _, sp := range figure.Subplots {
		var commAlone, commPar, predComm, compAlone, compPar, predComp []float64
		for _, p := range sp.Points {
			commAlone = append(commAlone, p.CommAlone)
			commPar = append(commPar, p.CommPar)
			predComm = append(predComm, p.PredComm)
			compAlone = append(compAlone, p.CompAlone)
			compPar = append(compPar, p.CompPar)
			predComp = append(predComp, p.PredComp)
		}
		tag := ""
		if sp.IsSample {
			tag = "  [calibration sample]"
		}
		commChart := plot.New(fmt.Sprintf("%s %v — communications (GB/s)%s", figure.Platform, sp.Placement, tag)).
			Add(plot.Series{Name: "alone", Y: commAlone, Marker: 'o'}).
			Add(plot.Series{Name: "parallel", Y: commPar, Marker: 'v'}).
			Add(plot.Series{Name: "model", Y: predComm, Marker: '+'})
		compChart := plot.New(fmt.Sprintf("%s %v — computations (GB/s)", figure.Platform, sp.Placement)).
			Add(plot.Series{Name: "alone", Y: compAlone, Marker: 'o'}).
			Add(plot.Series{Name: "parallel", Y: compPar, Marker: 'v'}).
			Add(plot.Series{Name: "model", Y: predComp, Marker: '+'})
		if _, err := fmt.Fprintf(w, "%s\n%s\n", commChart.Render(), compChart.Render()); err != nil {
			return err
		}
	}
	return nil
}

// printAll writes Tables I–II and Figures 2–8 as text. results cover the
// whole testbed, so every figure's platform is among them.
func printAll(w io.Writer, results []*eval.PlatformResult) error {
	if err := eval.Table1(topology.Testbed()).WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := eval.Table2(results).WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	byName := make(map[string]*eval.PlatformResult, len(results))
	for _, r := range results {
		byName[r.Platform] = r
	}
	for _, f := range eval.PaperFigures {
		r := byName[f.Platform]
		if f.Stacked {
			fmt.Fprintf(w, "FIGURE %d — stacked bandwidths (%s, comp@0/comm@0):\n", f.Number, r.Platform)
		} else {
			fmt.Fprintf(w, "\nFIGURE %d — %s:\n", f.Number, r.Platform)
		}
		if err := f.WriteCSV(w, r); err != nil {
			return err
		}
	}
	return nil
}
