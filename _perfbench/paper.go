package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"memcontention/internal/bench"
	"memcontention/internal/calib"
	"memcontention/internal/campaign"
	"memcontention/internal/eval"
	"memcontention/internal/export"
	"memcontention/internal/kernels"
	"memcontention/internal/memsys"
	"memcontention/internal/model"
	"memcontention/internal/obs"
	"memcontention/internal/report"
	"memcontention/internal/topology"
)

// paperWorkers is the campaign worker pool of one paper-testbed op: the
// machine's two CPUs.
const paperWorkers = 2

// figPlatform is the platform behind each of Figures 3–8, as paperfigs
// draws them.
var figPlatform = []struct {
	fig      int
	platform string
}{{3, "henri"}, {4, "henri-subnuma"}, {5, "diablo"}, {6, "occigen"}, {7, "pyxis"}, {8, "dahu"}}

// artifact is one rendered output file of `paperfigs -out`.
type artifact struct {
	name string
	data []byte
}

// paperTestbed regenerates the paper's 16 artifacts in memory per op: the
// six-platform evaluation campaign, then Tables I–II, Figures 2–8 and the
// six platform reports (each of which re-runs the ablation).
type paperTestbed struct {
	seed   uint64            // measurement-noise seed
	pinned map[string]string // artifact → sha256 for seed
	names  []string
	reg    *obs.Registry // attached in the traced run only
}

func (p *paperTestbed) workers() int    { return 1 }
func (p *paperTestbed) passLen() int    { return 1 }
func (p *paperTestbed) tearDown()       {}
func (p *paperTestbed) endPhase() error { return nil }

func (p *paperTestbed) setUp(seed uint64, tr *tracer) error {
	p.seed = seedClass(seed)
	pins, err := loadPins()
	if err != nil {
		return err
	}
	p.pinned = pins.PaperTestbed[fmt.Sprint(p.seed)]
	if len(p.pinned) != 16 {
		return fmt.Errorf("paper-testbed: %d digests pinned for noise seed %d, want 16", len(p.pinned), p.seed)
	}
	p.names = campaign.TestbedNames()
	// One checked op lets the heap grow to its working size before
	// timing starts.
	return p.op(0, -1, tr)
}

func (p *paperTestbed) attach() { p.reg = obs.NewRegistry() }

func (p *paperTestbed) op(_ int, id int64, tr *tracer) error {
	root := tr.begin(id, 0, "op.paper-testbed", "")
	defer tr.end(root)
	arts, err := p.render(id, root, tr)
	if err != nil {
		return err
	}
	return tr.do(id, root, "check.sha256", "", func() error { return checkDigests(arts, p.pinned) })
}

// render runs the campaign and renders every artifact into memory.
func (p *paperTestbed) render(id int64, root int, tr *tracer) ([]artifact, error) {
	var results []*eval.PlatformResult
	err := tr.do(id, root, "campaign.EvaluatePlatforms", "", func() error {
		var err error
		results, err = campaign.EvaluatePlatforms(campaign.Config{Seed: p.seed, Workers: paperWorkers, Registry: p.reg}, p.names)
		return err
	})
	if err != nil {
		return nil, err
	}
	return renderArtifacts(results, p.seed, p.reg, id, root, tr)
}

// renderArtifacts renders the 16 files `paperfigs -out` writes, in its
// order, with the report runners seeded by seed.
func renderArtifacts(results []*eval.PlatformResult, seed uint64, reg *obs.Registry, id int64, root int, tr *tracer) ([]artifact, error) {
	byName := make(map[string]*eval.PlatformResult, len(results))
	for _, r := range results {
		byName[r.Platform] = r
	}
	var arts []artifact
	add := func(layer, name string, fn func(w io.Writer) error) error {
		return tr.do(id, root, layer, name, func() error {
			var buf bytes.Buffer
			if err := fn(&buf); err != nil {
				return fmt.Errorf("render %s: %w", name, err)
			}
			arts = append(arts, artifact{name, buf.Bytes()})
			return nil
		})
	}
	if err := add("export.render", "table1.txt", func(w io.Writer) error {
		return eval.Table1(topology.Testbed()).WriteText(w)
	}); err != nil {
		return nil, err
	}
	if err := add("export.render", "table2.txt", func(w io.Writer) error {
		return eval.Table2(results).WriteText(w)
	}); err != nil {
		return nil, err
	}
	if err := add("export.render", "table2.json", func(w io.Writer) error {
		return export.WriteJSON(w, results)
	}); err != nil {
		return nil, err
	}
	if err := add("export.render", "figure2.csv", func(w io.Writer) error {
		r := byName["henri-subnuma"]
		if r == nil {
			return fmt.Errorf("henri-subnuma not evaluated")
		}
		st, err := eval.StackedFor(r, model.Placement{Comp: 0, Comm: 0})
		if err != nil {
			return err
		}
		return st.WriteCSV(w)
	}); err != nil {
		return nil, err
	}
	for _, f := range figPlatform {
		name := fmt.Sprintf("figure%d", f.fig)
		if err := add("export.render", name+".csv", func(w io.Writer) error {
			r := byName[f.platform]
			if r == nil {
				return fmt.Errorf("%s not evaluated", f.platform)
			}
			return eval.FigureFor(name, r).WriteCSV(w)
		}); err != nil {
			return nil, err
		}
	}
	for _, r := range results {
		r := r
		if err := add("report.Write", "report-"+r.Platform+".txt", func(w io.Writer) error {
			plat, err := topology.ByName(r.Platform)
			if err != nil {
				return err
			}
			runner, err := bench.NewRunner(bench.Config{Platform: plat, Seed: seed, Registry: reg})
			if err != nil {
				return err
			}
			return report.Write(w, r, runner)
		}); err != nil {
			return nil, err
		}
	}
	return arts, nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkDigests compares every artifact against its pinned SHA-256.
func checkDigests(arts []artifact, pinned map[string]string) error {
	if len(arts) != len(pinned) {
		return fmt.Errorf("rendered %d artifacts, %d pinned", len(arts), len(pinned))
	}
	for _, a := range arts {
		if got, want := sha256Hex(a.data), pinned[a.name]; got != want {
			return fmt.Errorf("artifact %s: sha256 %s, pinned %q", a.name, got, want)
		}
	}
	return nil
}

// layers fills the paper-testbed per-layer metrics: instrument counts and
// span times from the traced ops, plus replays of the calls the campaign
// makes internally, run through their public functions.
func (p *paperTestbed) layers(m *layerSet, ph phases, spans []span) error {
	ops := float64(ph.traced.ops)
	m.set("bench.points_per_op", counterSum(p.reg, "memcontention_bench_points_total")/ops)
	m.set("bench.sweeps_per_op", counterSum(p.reg, "memcontention_bench_placements_total")/ops)
	m.set("calib.fits_per_op", counterSum(p.reg, "memcontention_calib_fits_total")/ops)
	solves := counterSum(p.reg, "memcontention_bench_solves_total") / ops
	m.set("memsys.solve_calls_per_op", solves)

	distinct := 0
	for _, name := range p.names {
		plat, err := topology.ByName(name)
		if err != nil {
			return err
		}
		distinct += len(bench.AllPlacements(plat))
	}
	m.setRatio("bench.sweep_useful_ratio", ratio{num: float64(distinct), base: m.get("bench.sweeps_per_op")})

	secs, calls := spanTotals(spans)
	m.set("report.write_ms", secs["report.Write"]/ops*1e3)
	m.set("export.render_ms", secs["export.render"]/ops*1e3)
	if calls["campaign.EvaluatePlatforms"] == 0 {
		return fmt.Errorf("paper-testbed: no traced campaign span")
	}
	wall := secs["campaign.EvaluatePlatforms"] / float64(calls["campaign.EvaluatePlatforms"])

	rp, err := p.replay()
	if err != nil {
		return err
	}
	if rp.solves != solves {
		return fmt.Errorf("paper-testbed: replay made %v Solve calls per op, the bench counter says %v", rp.solves, solves)
	}
	m.setRatio("memsys.streams_per_solve", ratio{num: rp.streams, base: rp.solves})
	m.set("memsys.solve_us", rp.solveSec/rp.solves*1e6)
	m.set("memsys.solve_allocs", rp.solveAllocs/rp.solves)
	m.set("bench.measure_point_us", rp.pointSec/rp.points*1e6)
	m.set("bench.noise_us", (rp.pointSec-rp.solveSec)/rp.points*1e6)
	m.set("calib.calibrate_ms", rp.calibSec/rp.calibs*1e3)
	m.set("eval.evaluate_ms", rp.evalSec*1e3)
	m.set("model.predict_curve_us", rp.curveSec/rp.curves*1e6)
	m.setRatio("campaign.worker_efficiency", ratio{num: rp.singleSec, base: paperWorkers * wall})
	m.note(fmt.Sprintf("  work per op, one CPU: memsys.Solve %.1f ms, bench outside Solve %.1f ms, six single-platform evaluations %.1f ms, six-platform campaign wall %.1f ms",
		rp.solveSec*1e3, (rp.pointSec-rp.solveSec)*1e3, rp.singleSec*1e3, wall*1e3))
	return nil
}

// paperReplay holds the replay totals for one op's worth of inputs; each
// time is the median of replayReps repetitions.
type paperReplay struct {
	points, pointSec                       float64
	solves, streams, solveSec, solveAllocs float64
	calibs, calibSec                       float64
	evalSec, singleSec                     float64
	curves, curveSec                       float64
}

// replay runs again, through public functions, the calls one op makes
// inside the campaign: MeasurePoint for every (placement, n) of every
// sweep, Solve on the exact stream sets bench.Runner builds for them,
// CalibrateRunner, EvaluateRunner, single-platform EvaluatePlatforms and
// PredictCurve.
func (p *paperTestbed) replay() (paperReplay, error) {
	var rp paperReplay
	for _, name := range p.names {
		plat, err := topology.ByName(name)
		if err != nil {
			return rp, err
		}
		runner, err := bench.NewRunner(bench.Config{Platform: plat, Seed: p.seed})
		if err != nil {
			return rp, err
		}
		// One op sweeps, per platform, the two calibration samples and
		// then every placement, once for Table II and once more for
		// the report's ablation.
		local, remote := bench.SamplePlacements(plat)
		sweeps := append([]model.Placement{local, remote}, bench.AllPlacements(plat)...)
		sweeps = append(sweeps, sweeps...)
		nMax := plat.CoresPerSocket()
		sec, err := timeMedian(func() error {
			for _, pl := range sweeps {
				for n := 1; n <= nMax; n++ {
					if _, err := runner.MeasurePoint(pl, n); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return rp, err
		}
		rp.pointSec += sec
		rp.points += float64(len(sweeps) * nMax)

		sets, err := measureStreamSets(runner, sweeps, nMax)
		if err != nil {
			return rp, err
		}
		sys := runner.System()
		solveAll := func() error {
			for _, set := range sets {
				if _, err := sys.Solve(set); err != nil {
					return err
				}
			}
			return nil
		}
		a0 := heapAllocs()
		if err := solveAll(); err != nil {
			return rp, err
		}
		rp.solveAllocs += heapAllocs() - a0
		if sec, err = timeMedian(solveAll); err != nil {
			return rp, err
		}
		rp.solveSec += sec
		rp.solves += float64(len(sets))
		for _, set := range sets {
			rp.streams += float64(len(set))
		}

		fresh := func() (*bench.Runner, error) {
			return bench.NewRunner(bench.Config{Platform: plat, Seed: p.seed, Registry: p.reg})
		}
		if sec, err = timeMedian(func() error {
			r, err := fresh()
			if err == nil {
				_, err = calib.CalibrateRunner(r)
			}
			return err
		}); err != nil {
			return rp, err
		}
		rp.calibSec += sec
		rp.calibs++

		var res *eval.PlatformResult
		if sec, err = timeMedian(func() error {
			r, err := fresh()
			if err == nil {
				res, err = eval.EvaluateRunner(r)
			}
			return err
		}); err != nil {
			return rp, err
		}
		rp.evalSec += sec

		if sec, err = timeMedian(func() error {
			_, err := campaign.EvaluatePlatforms(campaign.Config{Seed: p.seed, Workers: 1, Registry: p.reg}, []string{name})
			return err
		}); err != nil {
			return rp, err
		}
		rp.singleSec += sec

		if sec, err = timeMedian(func() error {
			for _, pr := range res.Placements {
				if _, err := res.Model.PredictCurve(len(pr.Measured.Points), pr.Placement); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return rp, err
		}
		rp.curveSec += sec
		rp.curves += float64(len(res.Placements))
	}
	return rp, nil
}

// measureStreamSets rebuilds the three stream sets MeasurePoint solves for
// each (placement, n) the way bench.Runner builds them: the kernel's
// streams on the first n cores of socket 0, the receive stream, and both
// together.
func measureStreamSets(r *bench.Runner, sweeps []model.Placement, nMax int) ([][]memsys.Stream, error) {
	cfg := r.Config()
	cores := cfg.Platform.CoresOfSocket(0)
	var sets [][]memsys.Stream
	for _, pl := range sweeps {
		comm := []memsys.Stream{{ID: 1 << 20, Kind: memsys.KindComm, Node: pl.Comm}}
		for n := 1; n <= nMax; n++ {
			comp, err := kernels.Assignment{Kernel: cfg.Kernel, Cores: cores[:n], Node: pl.Comp}.Streams(r.System(), 0)
			if err != nil {
				return nil, err
			}
			par := append(append([]memsys.Stream(nil), comp...), comm...)
			sets = append(sets, comp, comm, par)
		}
	}
	return sets, nil
}
