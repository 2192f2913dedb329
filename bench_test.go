// bench_test.go is the paper-artifact harness: one testing.B benchmark per
// table and figure of the evaluation section, plus ablations (DESIGN.md
// E10) and the §VI extensions (E11, E12). Each benchmark performs the full
// pipeline per iteration (so -benchmem tracks its cost), prints the
// artifact once to stdout, and reports its prediction error as a custom
// metric (%err) so regressions show up in benchstat.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package memcontention

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"memcontention/internal/bench"
	"memcontention/internal/cache"
	"memcontention/internal/eval"
	"memcontention/internal/kernels"
	"memcontention/internal/memsys"
	"memcontention/internal/netbench"
	"memcontention/internal/sensitivity"
	"memcontention/internal/topology"
)

// printOnce prints each named artifact a single time per binary run, no
// matter how many benchmark iterations execute.
var printedArtifacts sync.Map

func printArtifact(name string, render func() string) {
	if _, loaded := printedArtifacts.LoadOrStore(name, true); loaded {
		return
	}
	fmt.Fprintf(os.Stdout, "\n===== %s =====\n%s\n", name, render())
}

func evaluatePlatform(b *testing.B, name string) *EvalResult {
	b.Helper()
	plat, err := topology.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	res, err := eval.EvaluatePlatform(bench.Config{Platform: plat, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1Platforms regenerates Table I.
func BenchmarkTable1Platforms(b *testing.B) {
	var tbl *Table
	for i := 0; i < b.N; i++ {
		tbl = eval.Table1(topology.Testbed())
	}
	printArtifact("TABLE I", tbl.String)
}

// BenchmarkTable2Errors regenerates Table II: the full six-platform
// evaluation, reporting the cross-platform average error.
func BenchmarkTable2Errors(b *testing.B) {
	var results []*EvalResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = eval.EvaluateTestbed(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	avg := 0.0
	for _, r := range results {
		avg += r.Errors.Average
	}
	b.ReportMetric(avg/float64(len(results)), "%err")
	printArtifact("TABLE II", func() string { return eval.Table2(results).String() })
}

// benchmarkFigure is the shared harness of Figures 3–8: evaluate the
// platform, assemble the figure series, report the platform error.
func benchmarkFigure(b *testing.B, figName, platform string) {
	var res *EvalResult
	var fig *eval.Figure
	for i := 0; i < b.N; i++ {
		res = evaluatePlatform(b, platform)
		fig = eval.FigureFor(figName, res)
	}
	b.ReportMetric(res.Errors.Average, "%err")
	printArtifact(figName+" ("+platform+")", func() string {
		var sb stringsBuilder
		if err := fig.WriteCSV(&sb); err != nil {
			return err.Error()
		}
		return sb.String()
	})
}

// stringsBuilder avoids importing strings solely for the builder.
type stringsBuilder struct{ buf []byte }

func (s *stringsBuilder) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}
func (s *stringsBuilder) String() string { return string(s.buf) }

// BenchmarkFigure2Stacked regenerates the stacked representation of
// Figure 2 (henri-subnuma, both streams on the first local node).
func BenchmarkFigure2Stacked(b *testing.B) {
	var st *eval.Stacked
	for i := 0; i < b.N; i++ {
		res := evaluatePlatform(b, "henri-subnuma")
		var err error
		st, err = eval.StackedFor(res, Placement{Comp: 0, Comm: 0})
		if err != nil {
			b.Fatal(err)
		}
	}
	printArtifact("FIGURE 2 (stacked, henri-subnuma comp@0/comm@0)", func() string {
		var sb stringsBuilder
		if err := st.WriteCSV(&sb); err != nil {
			return err.Error()
		}
		return sb.String() + "\nmodel points: " + st.Params.String()
	})
}

func BenchmarkFigure3Henri(b *testing.B)        { benchmarkFigure(b, "figure3", "henri") }
func BenchmarkFigure4HenriSubnuma(b *testing.B) { benchmarkFigure(b, "figure4", "henri-subnuma") }
func BenchmarkFigure5Diablo(b *testing.B)       { benchmarkFigure(b, "figure5", "diablo") }
func BenchmarkFigure6Occigen(b *testing.B)      { benchmarkFigure(b, "figure6", "occigen") }
func BenchmarkFigure7Pyxis(b *testing.B)        { benchmarkFigure(b, "figure7", "pyxis") }
func BenchmarkFigure8Dahu(b *testing.B)         { benchmarkFigure(b, "figure8", "dahu") }

// BenchmarkAblationBaselines (E10): the threshold model against the
// simpler predictors of internal/baseline on henri, all calibrated from
// the same two sample runs.
func BenchmarkAblationBaselines(b *testing.B) {
	plat, err := topology.ByName("henri")
	if err != nil {
		b.Fatal(err)
	}
	var rows []eval.AblationRow
	for i := 0; i < b.N; i++ {
		runner, err := bench.NewRunner(bench.Config{Platform: plat, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		rows, err = eval.Ablation(runner)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Name == "threshold-model" {
			b.ReportMetric(r.Overall, "%err")
		}
	}
	printArtifact("ABLATION E10 — predictor MAPE on henri (all placements)", func() string {
		return eval.AblationTable("henri", rows).String()
	})
}

// BenchmarkExtensionPingPong (E11): bidirectional communications (§VI
// future work) — the aggregate NIC traffic doubles, contention starts at
// fewer cores.
func BenchmarkExtensionPingPong(b *testing.B) {
	plat, err := topology.ByName("henri")
	if err != nil {
		b.Fatal(err)
	}
	var uni, bi *Curve
	for i := 0; i < b.N; i++ {
		ur, err := bench.NewRunner(bench.Config{Platform: plat, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		br, err := bench.NewRunner(bench.Config{Platform: plat, Seed: 1, Bidirectional: true})
		if err != nil {
			b.Fatal(err)
		}
		if uni, err = ur.RunPlacement(Placement{Comp: 0, Comm: 0}); err != nil {
			b.Fatal(err)
		}
		if bi, err = br.RunPlacement(Placement{Comp: 0, Comm: 0}); err != nil {
			b.Fatal(err)
		}
	}
	printArtifact("EXTENSION E11 — ping-pong vs pong-only (henri comp@0/comm@0)", func() string {
		out := "n,comm_uni,comm_bidir,comp_uni,comp_bidir\n"
		for i := range uni.Points {
			u, bb := uni.Points[i], bi.Points[i]
			out += fmt.Sprintf("%d,%.2f,%.2f,%.2f,%.2f\n", u.N, u.CommPar, bb.CommPar, u.CompPar, bb.CompPar)
		}
		return out
	})
}

// BenchmarkExtensionCopyKernel (E11): the copy kernel (§VI) demands more
// per-core bandwidth, moving the contention knee to fewer cores.
func BenchmarkExtensionCopyKernel(b *testing.B) {
	plat, err := topology.ByName("henri")
	if err != nil {
		b.Fatal(err)
	}
	var memset, copied *Curve
	for i := 0; i < b.N; i++ {
		mr, err := bench.NewRunner(bench.Config{Platform: plat, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		cr, err := bench.NewRunner(bench.Config{Platform: plat, Seed: 1, Kernel: kernels.New(kernels.Copy)})
		if err != nil {
			b.Fatal(err)
		}
		if memset, err = mr.RunPlacement(Placement{Comp: 0, Comm: 0}); err != nil {
			b.Fatal(err)
		}
		if copied, err = cr.RunPlacement(Placement{Comp: 0, Comm: 0}); err != nil {
			b.Fatal(err)
		}
	}
	printArtifact("EXTENSION E11 — copy kernel vs nt-memset (henri comp@0/comm@0)", func() string {
		out := "n,comm_memset,comm_copy\n"
		for i := range memset.Points {
			out += fmt.Sprintf("%d,%.2f,%.2f\n", memset.Points[i].N, memset.Points[i].CommPar, copied.Points[i].CommPar)
		}
		return out
	})
}

// BenchmarkExtensionCache (E12): a cache-friendly kernel loses memory
// demand to the LLC; contention fades as the working set shrinks.
func BenchmarkExtensionCache(b *testing.B) {
	plat, err := topology.ByName("henri")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := memsys.ProfileFor("henri")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := memsys.New(plat, prof)
	if err != nil {
		b.Fatal(err)
	}
	llc := cache.LLCFor("henri")
	load := kernels.New(kernels.Load)
	workingSets := []ByteSize{512 * KiB, 2 * MiB, 8 * MiB, 64 * MiB}
	type row struct {
		ws         ByteSize
		comm, comp float64
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, ws := range workingSets {
			a := kernels.Assignment{Kernel: load, Cores: plat.CoresOfSocket(0), Node: 0}
			streams, err := a.Streams(sys, 0)
			if err != nil {
				b.Fatal(err)
			}
			streams = llc.FilterStreams(streams, load, ws)
			streams = append(streams, memsys.Stream{ID: 1 << 20, Kind: memsys.KindComm, Node: 0})
			alloc, err := sys.Solve(streams)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row{ws: ws, comm: alloc.CommTotal, comp: alloc.ComputeTotal})
		}
	}
	printArtifact("EXTENSION E12 — LLC filtering (henri, load kernel, 18 cores + comm)", func() string {
		out := "working_set,comm_GBs,comp_mem_GBs\n"
		for _, r := range rows {
			out += fmt.Sprintf("%s,%.2f,%.2f\n", r.ws, r.comm, r.comp)
		}
		return out
	})
}

// BenchmarkExtensionMixedSockets (E13): computing cores drawn from both
// sockets hitting one NUMA node — the §II-B configuration the paper's
// model excludes. The sweep shows where the pure-local model stops
// applying.
func BenchmarkExtensionMixedSockets(b *testing.B) {
	plat, err := topology.ByName("henri")
	if err != nil {
		b.Fatal(err)
	}
	var single, mixed *Curve
	for i := 0; i < b.N; i++ {
		runner, err := bench.NewRunner(bench.Config{Platform: plat, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if single, err = runner.RunPlacement(Placement{Comp: 0, Comm: 0}); err != nil {
			b.Fatal(err)
		}
		if mixed, err = runner.RunMixedPlacement(Placement{Comp: 0, Comm: 0}); err != nil {
			b.Fatal(err)
		}
	}
	printArtifact("EXTENSION E13 — mixed-socket computing (henri, comp@0/comm@0)", func() string {
		out := "n,comp_alone_single_socket,comp_alone_mixed,comm_par_mixed\n"
		for i := range mixed.Points {
			m := mixed.Points[i]
			s := ""
			if i < len(single.Points) {
				s = fmt.Sprintf("%.2f", single.Points[i].CompAlone)
			}
			out += fmt.Sprintf("%d,%s,%.2f,%.2f\n", m.N, s, m.CompAlone, m.CommPar)
		}
		return out
	})
}

// BenchmarkExtensionMessageSizes (E14): ping-pong bandwidth vs message
// size over the DES + MPI substrate — locating where the model's
// large-message bandwidth assumption becomes valid.
func BenchmarkExtensionMessageSizes(b *testing.B) {
	plat, err := topology.ByName("henri")
	if err != nil {
		b.Fatal(err)
	}
	var pts []netbench.Point
	for i := 0; i < b.N; i++ {
		pts, err = netbench.PingPong(netbench.Config{Platform: plat, Node: 0})
		if err != nil {
			b.Fatal(err)
		}
	}
	printArtifact("EXTENSION E14 — ping-pong message-size sweep (henri, node 0)", func() string {
		out := "size,half_rtt_us,bandwidth_GBs\n"
		for _, p := range pts {
			out += fmt.Sprintf("%s,%.2f,%.2f\n", p.Size, p.HalfRTT*1e6, p.Bandwidth)
		}
		return out
	})
}

// BenchmarkSolver measures the memory-system solver alone: the hot path of
// every experiment (full-socket contended solve on henri, totals only, as
// the benchmark runner asks for them).
func BenchmarkSolver(b *testing.B) {
	plat, err := topology.ByName("henri")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := memsys.ProfileFor("henri")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := memsys.New(plat, prof)
	if err != nil {
		b.Fatal(err)
	}
	a := kernels.Assignment{Kernel: kernels.New(kernels.NTMemset), Cores: plat.CoresOfSocket(0), Node: 0}
	streams, err := a.Streams(sys, 0)
	if err != nil {
		b.Fatal(err)
	}
	streams = append(streams, memsys.Stream{ID: 1 << 20, Kind: memsys.KindComm, Node: 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.SolveInto(streams, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalibration measures the §IV-A2 pipeline (two sample sweeps +
// parameter extraction) on henri.
func BenchmarkCalibration(b *testing.B) {
	plat, err := topology.ByName("henri")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := CalibrateConfig(BenchConfig{Platform: plat, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict measures a single model prediction (the API a runtime
// system would call in its placement loop).
func BenchmarkPredict(b *testing.B) {
	m, err := Calibrate("henri", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(1+i%18, Placement{Comp: 0, Comm: NodeID(i % 2)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewCluster times building a 4-machine henri cluster, the
// set-up of every cluster-halo job. The machines run on the platform's
// shared memory system, so no platform, profile or System is built.
func BenchmarkNewCluster(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewCluster("henri", 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterHaloExchange measures the DES + MPI substrate: a two-
// machine halo exchange with overlap.
func BenchmarkClusterHaloExchange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cluster, err := NewCluster("henri", 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cluster.Run(1, func(ctx *RankCtx) {
			peer := 1 - ctx.Rank()
			req, err := ctx.Irecv(peer, 1, 8*MiB, 0)
			if err != nil {
				b.Error(err)
				return
			}
			if err := ctx.Send(peer, 1, 8*MiB, 0, nil); err != nil {
				b.Error(err)
				return
			}
			if _, err := ctx.Wait(req); err != nil {
				b.Error(err)
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivitySeeds (E15): calibration repeatability across noise
// seeds — the quantitative version of §IV-C's "higher prediction errors
// come most often from unstable input data".
func BenchmarkSensitivitySeeds(b *testing.B) {
	plat, err := topology.ByName("henri")
	if err != nil {
		b.Fatal(err)
	}
	var study *sensitivity.SeedStudy
	for i := 0; i < b.N; i++ {
		study, err = sensitivity.AcrossSeeds(bench.Config{Platform: plat}, []uint64{1, 2, 3, 4, 5})
		if err != nil {
			b.Fatal(err)
		}
	}
	mean, max := study.ErrorSpread()
	b.ReportMetric(max, "%err-max")
	_ = mean
	printArtifact("SENSITIVITY E15 — calibration stability (henri, 5 seeds)", func() string {
		return sensitivity.SpreadTable("henri", study.ParamSpread(false)).String()
	})
}

// BenchmarkSensitivityNoise (E15): prediction error vs measurement-noise
// amplification.
func BenchmarkSensitivityNoise(b *testing.B) {
	plat, err := topology.ByName("henri")
	if err != nil {
		b.Fatal(err)
	}
	var pts []sensitivity.NoisePoint
	for i := 0; i < b.N; i++ {
		pts, err = sensitivity.AcrossNoise(bench.Config{Platform: plat, Seed: 1}, []float64{0, 0.5, 1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	printArtifact("SENSITIVITY E15 — error vs noise level (henri)", func() string {
		return sensitivity.NoiseTable("henri", pts).String()
	})
}

// BenchmarkApplicationStencil (E16): the §VI use case end to end — the
// halo-exchange solver under three configurations, with the model-advised
// one winning.
func BenchmarkApplicationStencil(b *testing.B) {
	plat, err := topology.ByName("henri")
	if err != nil {
		b.Fatal(err)
	}
	m, err := Calibrate("henri", 1)
	if err != nil {
		b.Fatal(err)
	}
	base := StencilConfig{
		Machines:    2,
		Iterations:  2,
		DomainBytes: 2 * GiB,
		HaloBytes:   32 * MiB,
		Schedule:    StencilOverlap,
	}
	runOne := func(cfg StencilConfig) StencilResult {
		cluster, err := NewCluster("henri", base.Machines)
		if err != nil {
			b.Fatal(err)
		}
		res, err := RunStencil(cluster, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var seq, naive, advised StencilResult
	var advice StencilAdvice
	for i := 0; i < b.N; i++ {
		seqCfg := NaiveStencilConfig(plat, base)
		seqCfg.Schedule = StencilSequential
		seq = runOne(seqCfg)
		naive = runOne(NaiveStencilConfig(plat, base))
		advice, err = AdviseStencil(m, plat, base)
		if err != nil {
			b.Fatal(err)
		}
		cfg := base
		cfg.Cores = advice.Cores
		cfg.CompNode = advice.Placement.Comp
		cfg.CommNode = advice.Placement.Comm
		advised = runOne(cfg)
	}
	b.ReportMetric(seq.PerIteration/advised.PerIteration, "speedup")
	printArtifact("APPLICATION E16 — stencil solver (henri, 2 machines)", func() string {
		return fmt.Sprintf(
			"configuration                 ms/iter   speedup\nsequential naive             %8.3f   1.00\noverlap naive                %8.3f   %.2f\noverlap advised (%2d cores)   %8.3f   %.2f\nadvice: %v\n",
			seq.PerIteration*1e3,
			naive.PerIteration*1e3, seq.PerIteration/naive.PerIteration,
			advice.Cores, advised.PerIteration*1e3, seq.PerIteration/advised.PerIteration,
			advice.Placement)
	})
}
