package stencil

import (
	"testing"

	"memcontention/internal/bench"
	"memcontention/internal/calib"
	"memcontention/internal/engine"
	"memcontention/internal/memsys"
	"memcontention/internal/model"
	"memcontention/internal/mpi"
	"memcontention/internal/simnet"
	"memcontention/internal/topology"
	"memcontention/internal/units"
)

// testCluster is a minimal Runner over the simulation substrate.
type testCluster struct {
	plat     *topology.Platform
	machines int
}

func (tc *testCluster) Platform() *topology.Platform { return tc.plat }

func (tc *testCluster) Run(ranksPerMachine int, main func(*mpi.Ctx)) (float64, error) {
	sim := engine.NewSim()
	wire := simnet.WireRateFor(tc.plat.NIC.Tech, tc.plat.NIC.PCIeGen)
	fabric, err := simnet.NewFabric(sim, wire, 1.5e-6)
	if err != nil {
		return 0, err
	}
	prof, err := memsys.ProfileFor(tc.plat.Name)
	if err != nil {
		return 0, err
	}
	sys, err := memsys.New(tc.plat, prof)
	if err != nil {
		return 0, err
	}
	var machines []*simnet.Machine
	for i := 0; i < tc.machines; i++ {
		m, err := simnet.NewMachine(sim, i, sys)
		if err != nil {
			return 0, err
		}
		if err := fabric.Attach(m); err != nil {
			return 0, err
		}
		machines = append(machines, m)
	}
	world, err := mpi.NewWorld(sim, fabric, machines, ranksPerMachine)
	if err != nil {
		return 0, err
	}
	world.Launch(main)
	if err := sim.Run(); err != nil {
		return sim.Now(), err
	}
	return sim.Now(), nil
}

func henriCluster(machines int) *testCluster {
	return &testCluster{plat: topology.Henri(), machines: machines}
}

func baseConfig() Config {
	return Config{
		Machines:    2,
		Iterations:  2,
		Cores:       12,
		DomainBytes: units.GiB,
		HaloBytes:   32 * units.MiB,
		CompNode:    0,
		CommNode:    0,
		Schedule:    Overlap,
	}
}

func henriModel(t *testing.T) model.Model {
	t.Helper()
	runner, err := bench.NewRunner(bench.Config{Platform: topology.Henri(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := calib.CalibrateRunner(runner)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunSequentialAndOverlap(t *testing.T) {
	cfgSeq := baseConfig()
	cfgSeq.Schedule = Sequential
	seq, err := Run(henriCluster(2), cfgSeq)
	if err != nil {
		t.Fatal(err)
	}
	ovl, err := Run(henriCluster(2), baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if seq.SimTime <= 0 || ovl.SimTime <= 0 {
		t.Fatal("simulated times must be positive")
	}
	// Overlap must beat sequential (the point of the technique), but
	// not by more than the halo cost (contention limits the win).
	if ovl.SimTime >= seq.SimTime {
		t.Errorf("overlap (%.4fs) must beat sequential (%.4fs)", ovl.SimTime, seq.SimTime)
	}
	if ovl.PerIteration*float64(baseConfig().Iterations) != ovl.SimTime {
		t.Error("per-iteration accounting wrong")
	}
}

func TestOverlapIsNotFree(t *testing.T) {
	// With a memory-bound kernel, overlap does NOT fully hide the halo:
	// contention stretches the computation. Compare against an ideal
	// estimate from nominal bandwidths.
	cfg := baseConfig()
	cfg.Iterations = 1
	cfg.Cores = 14 // deep in the contended region on henri
	res, err := Run(henriCluster(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Ideal compute-alone time: 14 cores ≈ 66 GB/s aggregate.
	idealCompute := float64(cfg.DomainBytes) / (66 * units.BytesPerGB)
	if res.SimTime <= idealCompute {
		t.Errorf("contention must stretch the iteration beyond the compute-alone time (%.4fs vs %.4fs)",
			res.SimTime, idealCompute)
	}
}

func TestRunValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Machines = 1 },
		func(c *Config) { c.Iterations = 0 },
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Cores = 99 },
		func(c *Config) { c.DomainBytes = 0 },
		func(c *Config) { c.HaloBytes = 0 },
		func(c *Config) { c.CompNode = 9 },
		func(c *Config) { c.Schedule = Schedule(9) },
	}
	for i, mut := range bad {
		cfg := baseConfig()
		mut(&cfg)
		if _, err := Run(henriCluster(2), cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPredictIteration(t *testing.T) {
	m := henriModel(t)
	a, err := PredictIteration(m, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.PredictedIter <= 0 || a.ComputeTime <= 0 || a.CommTime <= 0 {
		t.Fatalf("degenerate advice: %+v", a)
	}
	if a.PredictedIter != a.ComputeTime && a.PredictedIter != a.CommTime {
		t.Error("overlapped iteration must cost the max of the two components")
	}
}

func TestPredictionMatchesSimulation(t *testing.T) {
	// The model-predicted iteration time must track the DES-measured
	// one within ~25 %. Exactness is not expected: the model was
	// calibrated against a single receive stream, while the application
	// drives four NIC streams per rank (two sends + two receives) and
	// adds barriers and rendezvous latency — the §IV-C1 caveat that
	// "model predictions are only valid for the parameters of the
	// benchmarks used to instantiate the model".
	m := henriModel(t)
	cfg := baseConfig()
	cfg.Iterations = 4
	pred, err := PredictIteration(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(henriCluster(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel := (res.PerIteration - pred.PredictedIter) / res.PerIteration
	if rel < -0.25 || rel > 0.25 {
		t.Errorf("predicted %.4fs vs simulated %.4fs per iteration (%.0f%% off)",
			pred.PredictedIter, res.PerIteration, 100*rel)
	}
}

func TestAdviseBeatsNaive(t *testing.T) {
	// E16: the §VI use case. The advisor's configuration must deliver a
	// faster simulated application than the naive one. The domain is
	// sized so the iteration is compute-dominated — in comm-dominated
	// regimes the model's single-stream comm calibration under-predicts
	// the aggregate of the app's four NIC streams (§IV-C1 caveat) and
	// the advice degrades gracefully instead of winning.
	m := henriModel(t)
	plat := topology.Henri()
	base := baseConfig()
	base.Iterations = 3
	base.DomainBytes = 4 * units.GiB

	naiveCfg := NaiveConfig(plat, base)
	naive, err := Run(henriCluster(2), naiveCfg)
	if err != nil {
		t.Fatal(err)
	}
	advice, err := Advise(m, plat, base)
	if err != nil {
		t.Fatal(err)
	}
	advisedCfg := base
	advisedCfg.Cores = advice.Cores
	advisedCfg.CompNode = advice.Placement.Comp
	advisedCfg.CommNode = advice.Placement.Comm
	advised, err := Run(henriCluster(2), advisedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if advised.SimTime >= naive.SimTime {
		t.Errorf("advised config (%.4fs) must beat naive (%.4fs); advice: %+v",
			advised.SimTime, naive.SimTime, advice)
	}
}

func TestAdviseValidation(t *testing.T) {
	m := henriModel(t)
	if _, err := Advise(m, nil, baseConfig()); err == nil {
		t.Error("nil platform must fail")
	}
}

func TestScheduleString(t *testing.T) {
	if Sequential.String() != "sequential" || Overlap.String() != "overlap" {
		t.Error("schedule names wrong")
	}
	if Schedule(9).String() == "" {
		t.Error("unknown schedule must render")
	}
}
