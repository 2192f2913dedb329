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
//	paperfigs -workers 8 -shards run/ -out results/
//	                           # 8 in-process lease workers over run/ (docs/campaigns.md)
//	paperfigs -workers remote -shards run/ -out results/
//	                           # finalize a memworker fleet's remote campaign
//
// With -checkpoint the evaluations are crash-safe (see docs/resilience.md):
// every completed placement curve and platform evaluation is journaled,
// SIGINT/SIGTERM stops the run cleanly (exit status 130; a second signal
// exits immediately), and re-running the same command resumes where it
// died with bit-identical artifacts (files under -out are also written
// atomically and durably). With -shards the run is instead a lease
// campaign in the given directory: -workers in-process lease workers —
// the same workers memworker runs — journal the pipeline's units into
// per-shard epoch journals, retry or quarantine failing units, and the
// merged journal replays into byte-identical artifacts. The directory
// resumes like a checkpoint and memtop -dir reads it (see
// docs/campaigns.md).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"memcontention/internal/atomicio"
	"memcontention/internal/bench"
	"memcontention/internal/campaign"
	"memcontention/internal/checkpoint"
	"memcontention/internal/eval"
	"memcontention/internal/export"
	"memcontention/internal/model"
	"memcontention/internal/obs"
	"memcontention/internal/plot"
	"memcontention/internal/report"
	"memcontention/internal/topology"
)

// options are paperfigs' parsed command-line inputs.
type options struct {
	table, fig   int
	out          string
	seed         uint64
	seedSet      bool // -seed given explicitly (pins a remote campaign's seed)
	workers      int
	remote       bool
	replications int
	shards       string
	ascii        bool
}

func main() {
	var o options
	flag.IntVar(&o.table, "table", 0, "emit only this table (1 or 2)")
	flag.IntVar(&o.fig, "fig", 0, "emit only this figure (2..8)")
	flag.StringVar(&o.out, "out", "", "write artifacts into this directory instead of stdout")
	flag.Uint64Var(&o.seed, "seed", 1, "measurement noise seed")
	var workersFlag string
	flag.StringVar(&workersFlag, "workers", "0", `parallel evaluations (0: GOMAXPROCS), or "remote": finalize a lease-coordinated multi-process campaign in -shards (docs/campaigns.md)`)
	flag.IntVar(&o.replications, "replications", 1, "Monte-Carlo replication sweep: evaluate this many consecutive seeds and report Table II errors as mean ± 95% CI")
	flag.StringVar(&o.shards, "shards", "", "run the pipeline as a lease campaign in this directory on -workers in-process workers (crash-safe, resumable, readable by memtop -dir; see docs/campaigns.md)")
	flag.BoolVar(&o.ascii, "plot", false, "render figures as ASCII charts instead of CSV")
	var cli obs.CLI
	cli.Register(flag.CommandLine, false)
	var ckpt checkpoint.CLI
	ckpt.Register(flag.CommandLine)
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			o.seedSet = true
		}
	})
	var perr error
	if o.workers, o.remote, perr = campaign.ParseWorkers(workersFlag); perr != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", perr)
		os.Exit(2)
	}

	ctx, stop := checkpoint.SignalContext()
	err := run(ctx, os.Stdout, o, &ckpt, &cli)
	stop()
	if code := checkpoint.Report(os.Stderr, "paperfigs", err); code != 0 {
		os.Exit(code)
	}
}

// figPlatform maps figure numbers to platforms.
var figPlatform = map[int]string{
	2: "henri-subnuma",
	3: "henri",
	4: "henri-subnuma",
	5: "diablo",
	6: "occigen",
	7: "pyxis",
	8: "dahu",
}

// run opens the journal and executes the command core; split from main so
// tests can drive the full logic with their own context, journal and
// output sink.
func run(ctx context.Context, w io.Writer, o options, ckpt *checkpoint.CLI, cli *obs.CLI) error {
	if err := cli.Start(); err != nil {
		return err
	}
	j, err := ckpt.Open()
	if err != nil {
		return err
	}
	defer j.Close()
	reg := cli.NewRegistry()
	j.SetRegistry(reg)
	man := obs.NewManifest("paperfigs")
	man.Seed = o.seed
	man.Args = os.Args[1:]
	if err := dispatch(ctx, w, o, j, reg); err != nil {
		// A graceful shutdown still flushes telemetry: the journal
		// already holds every completed unit.
		if checkpoint.IsCanceled(err) {
			_ = cli.Finish(reg, nil, man)
		}
		return err
	}
	return cli.Finish(reg, nil, man)
}

// dispatch renders the requested artifacts, recording telemetry into reg
// (shared by the parallel evaluations; nil disables instrumentation) and
// checkpointing completed units in j (nil disables checkpointing).
func dispatch(ctx context.Context, w io.Writer, o options, j *checkpoint.Journal, reg *obs.Registry) error {
	if o.table == 1 {
		return eval.Table1(topology.Testbed()).WriteText(w)
	}
	// Everything else needs evaluations; run them in parallel.
	need := map[string]bool{}
	switch {
	case o.table == 2:
		for _, p := range topology.Testbed() {
			need[p.Name] = true
		}
	case o.fig != 0:
		name, ok := figPlatform[o.fig]
		if !ok {
			return fmt.Errorf("unknown figure %d (valid: 2..8)", o.fig)
		}
		need[name] = true
	default:
		for _, p := range topology.Testbed() {
			need[p.Name] = true
		}
	}
	var names []string
	for _, p := range topology.Testbed() { // stable Table I order
		if need[p.Name] {
			names = append(names, p.Name)
		}
	}
	art, err := evaluate(ctx, o, j, reg, names)
	if err != nil {
		return err
	}
	results, rep := art.Platforms, art.Replications
	byName := map[string]*eval.PlatformResult{}
	for _, r := range results {
		byName[r.Platform] = r
	}

	switch {
	case o.table == 2:
		if err := eval.Table2(results).WriteText(w); err != nil {
			return err
		}
		return writeReplications(w, rep)
	case o.fig == 2:
		r, err := figureResult(byName, 2, "henri-subnuma")
		if err != nil {
			return err
		}
		st, err := eval.StackedFor(r, model.Placement{Comp: 0, Comm: 0})
		if err != nil {
			return err
		}
		return st.WriteCSV(w)
	case o.fig != 0:
		r, err := figureResult(byName, o.fig, figPlatform[o.fig])
		if err != nil {
			return err
		}
		figure := eval.FigureFor(fmt.Sprintf("figure%d", o.fig), r)
		if o.ascii {
			return writeASCII(w, figure)
		}
		return figure.WriteCSV(w)
	case o.out != "":
		return writeAll(w, o.out, art, byName)
	default:
		if err := printAll(w, results, byName); err != nil {
			return err
		}
		return writeReplications(w, rep)
	}
}

// evaluate runs the needed platform evaluations — as a lease campaign
// when -shards names a campaign directory, on the plain parallel sweep
// otherwise — plus the replication sweep when asked. The artifacts carry
// the effective seed: a remote campaign's comes from its manifest.
func evaluate(ctx context.Context, o options, j *checkpoint.Journal, reg *obs.Registry, names []string) (*campaign.Artifacts, error) {
	cfg := campaign.Config{
		Seed:         o.seed,
		Workers:      o.workers,
		Replications: o.replications,
		Context:      ctx,
		Journal:      j,
		Registry:     reg,
	}
	if o.remote {
		// Finalize a lease-coordinated multi-process campaign: wait for
		// the memworker fleet to journal every unit, merge all epochs,
		// and replay the sequential assembly (docs/campaigns.md). The
		// platform list, seed and replication width come from the
		// campaign's manifest; only explicitly passed flags are pinned
		// against it.
		if o.shards == "" {
			return nil, fmt.Errorf("-workers remote requires -shards <campaign dir>")
		}
		rcfg := cfg
		if !o.seedSet {
			rcfg.Seed = 0 // inherit the manifest's seed
		}
		res, err := campaign.RemoteMerge(rcfg, campaign.RemoteOptions{Dir: o.shards}, nil)
		if err != nil {
			return nil, err
		}
		return res.Artifacts, nil
	}
	if o.shards != "" {
		res, err := campaign.RunLocal(cfg, campaign.RemoteOptions{Dir: o.shards}, names)
		if err != nil {
			return nil, err
		}
		return res.Artifacts, nil
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

// figureResult looks up the evaluation a figure needs. Sequential and
// sharded runs always evaluate the figure's platform, but a remote
// campaign's platform set comes from its manifest and may not cover it.
func figureResult(byName map[string]*eval.PlatformResult, fig int, platform string) (*eval.PlatformResult, error) {
	if r := byName[platform]; r != nil {
		return r, nil
	}
	return nil, fmt.Errorf("figure %d needs platform %s, which this campaign does not cover", fig, platform)
}

func printAll(w io.Writer, results []*eval.PlatformResult, byName map[string]*eval.PlatformResult) error {
	if err := eval.Table1(topology.Testbed()).WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := eval.Table2(results).WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if r := byName["henri-subnuma"]; r != nil {
		st, err := eval.StackedFor(r, model.Placement{Comp: 0, Comm: 0})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "FIGURE 2 — stacked bandwidths (henri-subnuma, comp@0/comm@0):")
		if err := st.WriteCSV(w); err != nil {
			return err
		}
	}
	for figNo := 3; figNo <= 8; figNo++ {
		r := byName[figPlatform[figNo]]
		if r == nil {
			continue // the campaign does not cover this figure's platform
		}
		fmt.Fprintf(w, "\nFIGURE %d — %s:\n", figNo, r.Platform)
		if err := eval.FigureFor(fmt.Sprintf("figure%d", figNo), r).WriteCSV(w); err != nil {
			return err
		}
	}
	return nil
}

// writeAll writes every artifact of art into dir; the per-platform
// reports re-derive their ablations from a runner at art.Seed, the seed
// the evaluations ran at.
func writeAll(w io.Writer, dir string, art *campaign.Artifacts, byName map[string]*eval.PlatformResult) error {
	results, rep := art.Platforms, art.Replications
	if err := atomicio.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Artifacts are rendered in memory and written atomically + durably
	// (temp file + fsync + rename): a crash mid-write never leaves a
	// torn or half-written result file behind.
	write := func(name string, fn func(f io.Writer) error) error {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			return err
		}
		return atomicio.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644)
	}
	if err := write("table1.txt", func(f io.Writer) error {
		return eval.Table1(topology.Testbed()).WriteText(f)
	}); err != nil {
		return err
	}
	if err := write("table2.txt", func(f io.Writer) error {
		return eval.Table2(results).WriteText(f)
	}); err != nil {
		return err
	}
	if err := write("table2.json", func(f io.Writer) error {
		return export.WriteJSON(f, results)
	}); err != nil {
		return err
	}
	if rep != nil {
		if err := write("replications.txt", func(f io.Writer) error {
			return rep.Table().WriteText(f)
		}); err != nil {
			return err
		}
		if err := write("replications.json", func(f io.Writer) error {
			return export.WriteJSON(f, rep)
		}); err != nil {
			return err
		}
	}
	if r := byName["henri-subnuma"]; r != nil {
		st, err := eval.StackedFor(r, model.Placement{Comp: 0, Comm: 0})
		if err != nil {
			return err
		}
		if err := write("figure2.csv", st.WriteCSV); err != nil {
			return err
		}
	}
	for figNo := 3; figNo <= 8; figNo++ {
		r := byName[figPlatform[figNo]]
		if r == nil {
			continue // the campaign does not cover this figure's platform
		}
		fig := eval.FigureFor(fmt.Sprintf("figure%d", figNo), r)
		if err := write(fmt.Sprintf("figure%d.csv", figNo), fig.WriteCSV); err != nil {
			return err
		}
	}
	for _, r := range results {
		r := r
		if err := write("report-"+r.Platform+".txt", func(f io.Writer) error {
			plat, err := topology.ByName(r.Platform)
			if err != nil {
				return err
			}
			runner, err := bench.NewRunner(bench.Config{Platform: plat, Seed: art.Seed})
			if err != nil {
				return err
			}
			return report.Write(f, r, runner)
		}); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "wrote artifacts to %s\n", dir)
	return nil
}
