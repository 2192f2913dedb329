// Package campaign runs the paper's §IV evaluation: every platform of
// the testbed evaluated on a worker pool (EvaluatePlatforms), the
// Monte-Carlo replication sweep over consecutive seeds (Replicate), the
// DES overlap cross-check (CrossCheck), and the rendering of the paper's
// artifacts (Artifacts). Two properties hold throughout:
//
//   - cancellation: a context threads through every layer down to the
//     discrete-event engine, so SIGINT stops the run at the next
//     placement or simulation event and surfaces as a cancellation
//     error, never as a result;
//   - determinism: results depend only on (seed, configuration) via
//     internal/rng, never on the worker count or GOMAXPROCS, so a rerun
//     after an interruption writes byte-identical artifacts.
package campaign

import (
	"context"

	"memcontention"
	"memcontention/internal/bench"
	"memcontention/internal/checkpoint"
	"memcontention/internal/eval"
	"memcontention/internal/faults"
	"memcontention/internal/obs"
	"memcontention/internal/sweep"
	"memcontention/internal/topology"
	"memcontention/internal/trace"
)

// Config parameterises a campaign. The zero value (plus defaults applied
// by each entry point) runs the standard seed-1 pipeline without
// cancellation or telemetry.
type Config struct {
	// Seed drives all measurement noise (default 1).
	Seed uint64
	// Workers bounds the evaluation worker pool (0: GOMAXPROCS).
	Workers int
	// Context cancels the campaign cooperatively between placements
	// and simulation events.
	// Nil keeps every layer check-free.
	Context context.Context
	// Registry receives telemetry from every layer; nil disables it.
	Registry *obs.Registry
	// Recorder, when set, receives the DES cross-check's trace: flow
	// events, causal spans and the overlap marks.
	Recorder *trace.Recorder
	// FaultPlan, when set, runs the DES cross-check under fault
	// injection guarded by MPI resilience and a watchdog.
	FaultPlan *faults.Plan
	// Replications > 1 runs the Monte-Carlo replication sweep: every
	// platform is evaluated once per seed in {Seed, Seed+1, ...} and the
	// pipeline artifacts gain a per-platform mean/stddev/CI95 summary of
	// the Table II error metrics (see Replicate). 0 and 1 both mean a
	// single replication, the plain pipeline.
	Replications int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ctx returns the effective context (never nil).
func (c Config) ctx() context.Context {
	if c.Context == nil {
		return context.Background()
	}
	return c.Context
}

// EvaluatePlatforms runs the full §IV evaluation for the named built-in
// platforms on a worker pool, returning results in input order.
func EvaluatePlatforms(cfg Config, names []string) ([]*eval.PlatformResult, error) {
	cfg = cfg.withDefaults()
	return sweep.MapCtx(cfg.ctx(), names, cfg.Workers, func(name string) (*eval.PlatformResult, error) {
		return evaluateOne(cfg, name)
	})
}

func evaluateOne(cfg Config, name string) (*eval.PlatformResult, error) {
	plat, err := topology.ByName(name)
	if err != nil {
		return nil, err
	}
	runner, err := bench.NewRunner(bench.Config{
		Platform: plat,
		Seed:     cfg.Seed,
		Registry: cfg.Registry,
		Context:  cfg.Context,
	})
	if err != nil {
		return nil, err
	}
	return eval.EvaluateRunner(runner)
}

// CrossCheckResult is the recorded outcome of the DES overlap cross-check.
// Under a fault plan a failing run is the plan working as intended, so the
// failure is captured here instead of surfacing as a campaign error.
type CrossCheckResult struct {
	Platform   string  `json:"platform"`
	SimSeconds float64 `json:"sim_seconds"`
	Completed  bool    `json:"completed"`
	Error      string  `json:"error,omitempty"`
	PlanSeed   uint64  `json:"plan_seed,omitempty"`
	PlanEvents int     `json:"plan_events,omitempty"`
}

// CrossCheck replays the paper's motivating overlap scenario (rank 0
// computes while a large message streams in, rank 1 sends) on a simulated
// two-machine cluster, optionally under cfg.FaultPlan with MPI timeouts,
// drop retries and a watchdog armed. Cancellation propagates from
// cfg.Context between simulation events and is returned as an error,
// never as an outcome; trace events land in cfg.Recorder.
func CrossCheck(cfg Config, platform string) (*CrossCheckResult, error) {
	plat, err := topology.ByName(platform)
	if err != nil {
		return nil, err
	}
	cluster, err := memcontention.NewCluster(platform, 2)
	if err != nil {
		return nil, err
	}
	cluster.WithRegistry(cfg.Registry)
	if cfg.Recorder != nil {
		cluster.WithObserver(cfg.Recorder)
	}
	if cfg.Context != nil {
		cluster.WithContext(cfg.Context)
	}
	res := &CrossCheckResult{Platform: platform}
	if cfg.FaultPlan != nil {
		cluster.WithFaults(cfg.FaultPlan).
			WithResilience(memcontention.Resilience{OpTimeout: 5, MaxRetries: 4}).
			WithWatchdog(300, 10_000_000)
		res.PlanSeed = cfg.FaultPlan.Seed
		res.PlanEvents = len(cfg.FaultPlan.Events)
	}

	const tag = 7
	msg := 64 * memcontention.MiB
	cores := plat.CoresPerSocket() / 2
	if cores < 1 {
		cores = 1
	}
	secs, runErr := cluster.Run(1, func(ctx *memcontention.RankCtx) {
		switch ctx.Rank() {
		case 0:
			topo := ctx.Machine().Topo
			work := memcontention.Assignment{
				Kernel: memcontention.DefaultKernel(),
				Cores:  topo.SocketSet(0).Take(cores),
				Node:   0,
			}
			cfg.Recorder.MarkAt(ctx.Now(), "overlap-start")
			req, err := ctx.Irecv(1, tag, msg, 0)
			if err != nil {
				panic(err)
			}
			if _, err := ctx.Compute(work, 256*memcontention.MiB); err != nil {
				panic(err)
			}
			if _, err := ctx.Wait(req); err != nil {
				panic(err)
			}
			cfg.Recorder.MarkAt(ctx.Now(), "overlap-end")
		case 1:
			if err := ctx.Send(0, tag, msg, 0, nil); err != nil {
				panic(err)
			}
		}
	})
	// Cancellation is never an outcome: the run did not complete, so
	// the caller gets the cancellation and no result.
	if checkpoint.IsCanceled(runErr) {
		return nil, runErr
	}
	res.SimSeconds = secs
	res.Completed = runErr == nil
	if runErr != nil {
		if cfg.FaultPlan == nil {
			return nil, runErr
		}
		res.Error = runErr.Error()
		res.SimSeconds = 0
	}
	return res, nil
}

// TestbedNames returns the Table I platform names in the paper's order.
func TestbedNames() []string {
	plats := topology.Testbed()
	names := make([]string, len(plats))
	for i, p := range plats {
		names[i] = p.Name
	}
	return names
}
