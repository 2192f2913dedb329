// Command memmodel calibrates the contention model on a platform and
// prints parameters and predictions (§III + §IV-A2).
//
// Usage:
//
//	memmodel -platform henri                      # calibrate, print params
//	memmodel -platform henri -json                # params as JSON
//	memmodel -platform henri -n 12 -comp 0 -comm 1   # one prediction
//	memmodel -platform henri -predict             # predictions, all placements
//
// Telemetry (all optional, see docs/observability.md):
//
//	memmodel -platform henri -metrics m.prom      # Prometheus snapshot
//	memmodel -platform henri -trace t.jsonl       # DES cross-check trace
//	memmodel -platform henri -manifest run.json   # reproducibility manifest
//	memmodel -platform henri -pprof localhost:6060
//
// Robustness (see docs/resilience.md):
//
//	memmodel -platform henri -faults plan.json    # cross-check under faults
//	memmodel -platform henri -robust              # calibration noise sweep
//
// SIGINT/SIGTERM interrupts the run cleanly: exit status 130, with the
// telemetry flushed and a `checkpoint` trace event labelled
// "interrupted" marking the cut in -trace output.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"memcontention"
	"memcontention/internal/bench"
	"memcontention/internal/calib"
	"memcontention/internal/campaign"
	"memcontention/internal/checkpoint"
	"memcontention/internal/engine"
	"memcontention/internal/export"
	"memcontention/internal/model"
	"memcontention/internal/obs"
	"memcontention/internal/topology"
	"memcontention/internal/trace"
)

// options are memmodel's parsed command-line inputs.
type options struct {
	platform         string
	seed             uint64
	jsonOut, predict bool
	n, comp, comm    int
	faultsPath       string
	robust           bool
	robustTrials     int
	workers          int
	replications     int
}

func main() {
	var o options
	flag.StringVar(&o.platform, "platform", "henri", "built-in platform name")
	flag.Uint64Var(&o.seed, "seed", 1, "measurement noise seed")
	flag.BoolVar(&o.jsonOut, "json", false, "print the calibrated model as JSON")
	flag.BoolVar(&o.predict, "predict", false, "print prediction tables for all placements")
	flag.IntVar(&o.n, "n", 0, "predict for this number of computing cores")
	flag.IntVar(&o.comp, "comp", 0, "computation data NUMA node for -n")
	flag.IntVar(&o.comm, "comm", 0, "communication data NUMA node for -n")
	flag.StringVar(&o.faultsPath, "faults", "", "fault plan JSON file: run the DES cross-check under this plan")
	flag.BoolVar(&o.robust, "robust", false, "print how calibration errors degrade with benchmark noise")
	flag.IntVar(&o.robustTrials, "robust-trials", 5, "noise realizations per amplitude for -robust")
	flag.IntVar(&o.workers, "workers", 0, "parallel evaluations for -replications (0: GOMAXPROCS)")
	flag.IntVar(&o.replications, "replications", 1, "Monte-Carlo replication sweep: evaluate this many consecutive seeds and print the platform's Table II errors as mean ± 95% CI")
	var cli obs.CLI
	cli.Register(flag.CommandLine, true)
	flag.Parse()

	ctx, stop := checkpoint.SignalContext()
	err := run(ctx, os.Stdout, o, &cli)
	stop()
	if code := checkpoint.Report(os.Stderr, "memmodel", err); code != 0 {
		os.Exit(code)
	}
}

// run executes the command core; split from main so tests can drive the
// full logic with their own context and output sink.
func run(ctx context.Context, w io.Writer, o options, cli *obs.CLI) (err error) {
	if o.workers < 0 {
		return fmt.Errorf("-workers %d: must be a non-negative worker count (0: GOMAXPROCS)", o.workers)
	}
	if o.replications < 0 {
		return fmt.Errorf("-replications %d: must be a non-negative seed count (0 or 1: one seed)", o.replications)
	}
	if o.robustTrials < 1 {
		return fmt.Errorf("-robust-trials %d: must be a positive trial count", o.robustTrials)
	}
	if o.n < 0 {
		return fmt.Errorf("-n %d: must be a positive core count (0: no single prediction)", o.n)
	}
	if o.n == 0 && (o.comp != 0 || o.comm != 0) {
		return fmt.Errorf("-comp %d -comm %d: they place the -n prediction; give -n", o.comp, o.comm)
	}
	if err := cli.Start(); err != nil {
		return err
	}
	plat, err := topology.ByName(o.platform)
	if err != nil {
		return err
	}
	reg := cli.NewRegistry()
	var rec *trace.Recorder
	if cli.WantsTrace() {
		rec = trace.NewRecorder()
	}
	man := obs.NewManifest("memmodel")
	man.Platform = o.platform
	man.Seed = o.seed
	man.Args = os.Args[1:]

	// Telemetry flushes on success AND on graceful shutdown — an
	// interrupted run still writes its metrics, manifest, and a
	// `checkpoint` trace event recording where the run was cut.
	defer func() {
		if err != nil && !checkpoint.IsCanceled(err) {
			return
		}
		if err != nil && rec != nil {
			at := 0.0
			var ce *engine.CanceledError
			if errors.As(err, &ce) {
				at = ce.At
			}
			rec.CheckpointAt(at, "interrupted")
		}
		ferr := cli.Finish(reg, rec, man)
		if err == nil {
			err = ferr
		}
	}()

	runner, err := bench.NewRunner(bench.Config{Platform: plat, Seed: o.seed, Registry: reg, Context: ctx})
	if err != nil {
		return err
	}
	man.Kernel = runner.Config().Kernel.String()
	m, err := calib.CalibrateRunner(runner)
	if err != nil {
		return err
	}

	switch {
	case o.jsonOut:
		err = export.WriteJSON(w, m)
	case o.n > 0:
		pl := model.Placement{Comp: topology.NodeID(o.comp), Comm: topology.NodeID(o.comm)}
		pred, perr := m.Predict(o.n, pl)
		if perr != nil {
			return perr
		}
		fmt.Fprintf(w, "%s, %v, n=%d: computations %.2f GB/s, communications %.2f GB/s\n",
			o.platform, pl, o.n, pred.Comp, pred.Comm)
	case o.predict:
		for _, pl := range bench.AllPlacements(plat) {
			preds, perr := m.PredictCurve(plat.CoresPerSocket(), pl)
			if perr != nil {
				return perr
			}
			t := export.NewTable(fmt.Sprintf("%s — predicted bandwidths for %v (GB/s)", o.platform, pl),
				"n", "computations", "communications")
			for i, p := range preds {
				t.AddRow(fmt.Sprint(i+1), export.GBs(p.Comp), export.GBs(p.Comm))
			}
			if err := t.WriteText(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	default:
		err = export.ParamsTable(
			fmt.Sprintf("Calibrated model for %s (seed %d)", o.platform, o.seed), m,
		).WriteText(w)
	}
	if err != nil {
		return err
	}

	if o.robust {
		// A fresh runner so the sweep is reproducible for the seed alone,
		// independent of how much measurement the calibration consumed.
		rrunner, rerr := bench.NewRunner(bench.Config{Platform: plat, Seed: o.seed, Registry: reg, Context: ctx})
		if rerr != nil {
			return rerr
		}
		rep, rerr := calib.Robustness(rrunner, calib.RobustnessOptions{Trials: o.robustTrials, Seed: o.seed})
		if rerr != nil {
			return rerr
		}
		t := export.NewTable(
			fmt.Sprintf("%s — calibration robustness (Table II MAPE vs input noise, %d trials)", o.platform, o.robustTrials),
			"noise", "comm MAPE %", "comp MAPE %", "average %", "fit failures")
		row := func(label string, pt calib.RobustnessPoint) {
			t.AddRow(label,
				fmt.Sprintf("%.2f", pt.CommMAPE),
				fmt.Sprintf("%.2f", pt.CompMAPE),
				fmt.Sprintf("%.2f", pt.Average),
				fmt.Sprint(pt.FitFailures))
		}
		row("clean", rep.Baseline)
		for _, pt := range rep.Points {
			row(fmt.Sprintf("±%g%%", pt.NoiseRel*100), pt)
		}
		if err := t.WriteText(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	if o.replications > 1 {
		// The replication sweep measures the platform's Table II errors
		// across a consecutive-seed ensemble.
		rep, rerr := campaign.Replicate(campaign.Config{
			Seed:         o.seed,
			Workers:      o.workers,
			Replications: o.replications,
			Context:      ctx,
			Registry:     reg,
		}, []string{o.platform}, nil)
		if rerr != nil {
			return rerr
		}
		if err := rep.Table().WriteText(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	var plan *memcontention.FaultPlan
	if o.faultsPath != "" {
		if plan, err = memcontention.LoadFaultPlan(o.faultsPath); err != nil {
			return err
		}
	}

	// The DES cross-check replays the paper's motivating overlap scenario
	// on the simulated cluster; it feeds the event trace and the engine's
	// instruments. Only run it when some telemetry output wants the data
	// or a fault plan asks to stress it.
	if cli.WantsTrace() || reg != nil || plan != nil {
		xc, xerr := campaign.CrossCheck(campaign.Config{
			Seed:      o.seed,
			Context:   ctx,
			Registry:  reg,
			Recorder:  rec,
			FaultPlan: plan,
		}, o.platform)
		if xerr != nil {
			return xerr
		}
		if plan != nil {
			if xc.Completed {
				fmt.Fprintf(w, "cross-check under fault plan (seed %d, %d events): completed in %.6f simulated seconds\n",
					xc.PlanSeed, xc.PlanEvents, xc.SimSeconds)
			} else {
				fmt.Fprintf(w, "cross-check under fault plan (seed %d, %d events): failed: %s\n",
					xc.PlanSeed, xc.PlanEvents, xc.Error)
			}
		}
	}
	return nil
}
