// Package memcontention predicts memory contention between MPI
// communications and memory-bound computations on NUMA machines,
// reproducing Denis, Jeannot & Swartvagher, "Modeling Memory Contention
// between Communications and Computations in Distributed HPC Systems"
// (IPDPS Workshops 2022).
//
// The package bundles:
//
//   - the paper's threshold model (equations 1–8): calibrated from two
//     benchmark runs, it predicts the memory bandwidth obtained by
//     computations and communications for every number of computing cores
//     and every NUMA placement of their data;
//   - a simulated testbed standing in for the paper's hardware: the six
//     Table I platforms, a fluid-flow memory-system simulator with the
//     paper's arbitration hypotheses, a simulated fabric and a small MPI;
//   - the benchmarking suite and the full evaluation pipeline
//     regenerating Table II and the data behind Figures 2–8.
//
// # Quick start
//
//	m, err := memcontention.Calibrate("henri", 1)
//	if err != nil { ... }
//	pred, err := m.Predict(12, memcontention.Placement{Comp: 0, Comm: 0})
//	// pred.Comp, pred.Comm are the predicted GB/s.
//
// See examples/ for complete programs.
package memcontention

import (
	"fmt"

	"memcontention/internal/bench"
	"memcontention/internal/calib"
	"memcontention/internal/eval"
	"memcontention/internal/export"
	"memcontention/internal/kernels"
	"memcontention/internal/memsys"
	"memcontention/internal/model"
	"memcontention/internal/obs"
	"memcontention/internal/topology"
	"memcontention/internal/trace"
)

// Re-exported types: the stable public surface over the internal packages.
type (
	// Platform is a machine description (Table I row).
	Platform = topology.Platform
	// NodeID identifies a NUMA node (socket-major numbering).
	NodeID = topology.NodeID
	// CoreID identifies a physical core.
	CoreID = topology.CoreID
	// HardwareProfile is the simulated hardware behaviour of a platform.
	HardwareProfile = memsys.Profile
	// Model is the calibrated two-instantiation contention model.
	Model = model.Model
	// Params is one model instantiation (local or remote).
	Params = model.Params
	// Placement locates computation and communication data on NUMA nodes.
	Placement = model.Placement
	// Prediction is a (computation, communication) bandwidth pair in GB/s.
	Prediction = model.Prediction
	// BenchConfig parameterises a benchmark campaign.
	BenchConfig = bench.Config
	// BenchRunner executes benchmark campaigns.
	BenchRunner = bench.Runner
	// Curve is the benchmark output for one placement.
	Curve = bench.Curve
	// EvalResult is the full evaluation of one platform.
	EvalResult = eval.PlatformResult
	// ErrorSummary is one row of Table II.
	ErrorSummary = eval.ErrorSummary
	// Kernel is a computation kernel description.
	Kernel = kernels.Kernel
	// Table is a renderable result table.
	Table = export.Table
	// Registry collects telemetry instruments (counters, gauges,
	// histograms) and exports them as Prometheus text or JSON.
	Registry = obs.Registry
	// TraceRecorder records flow lifecycle events and causal spans
	// (memory flows, fabric transfers, MPI operations, ranks) on one
	// timeline for rendering, JSONL export and critical-path analysis;
	// install it with Cluster.WithObserver.
	TraceRecorder = trace.Recorder
	// RunManifest describes a run (tool, version, platform, seed,
	// instruments) for reproducibility records.
	RunManifest = obs.Manifest
)

// PlatformBuilder assembles custom symmetric platforms.
type PlatformBuilder = topology.Builder

// Network technologies and vendors for custom platforms.
const (
	InfiniBand = topology.InfiniBand
	OmniPath   = topology.OmniPath
	Intel      = topology.Intel
	AMD        = topology.AMD
	Cavium     = topology.Cavium
)

// NewPlatformBuilder starts a custom machine description (what-if
// studies on topologies that are not part of Table I).
func NewPlatformBuilder(name string) *PlatformBuilder { return topology.NewBuilder(name) }

// DefaultProfileFor derives a plausible generic hardware profile for a
// custom platform from its structure (core counts, NUMA split).
func DefaultProfileFor(plat *Platform) *HardwareProfile { return memsys.DefaultProfile(plat) }

// Platforms lists the built-in testbed platform names (Table I).
func Platforms() []string { return topology.Names() }

// PlatformByName returns a built-in platform. The platform is shared by
// every caller in the process and must not be modified; describe a
// changed machine with NewPlatformBuilder instead.
func PlatformByName(name string) (*Platform, error) { return topology.ByName(name) }

// Testbed returns every built-in platform in Table I order, in a new
// slice. The platforms are shared, as PlatformByName's are, and must not
// be modified.
func Testbed() []*Platform { return topology.Testbed() }

// ProfileFor returns the simulated hardware behaviour of a built-in
// platform. Callers may tweak the copy to explore what-if hardware.
func ProfileFor(name string) (*HardwareProfile, error) { return memsys.ProfileFor(name) }

// DefaultKernel returns the paper's calibration kernel (non-temporal
// memset).
func DefaultKernel() Kernel { return kernels.New(kernels.NTMemset) }

// KernelByName returns a built-in kernel: "nt-memset", "copy", "triad" or
// "load".
func KernelByName(name string) (Kernel, error) {
	for _, kind := range []kernels.Kind{kernels.NTMemset, kernels.Copy, kernels.Triad, kernels.Load} {
		if kind.String() == name {
			return kernels.New(kind), nil
		}
	}
	return Kernel{}, fmt.Errorf("memcontention: unknown kernel %q", name)
}

// NewBenchRunner builds a benchmark runner for a configuration.
func NewBenchRunner(cfg BenchConfig) (*BenchRunner, error) { return bench.NewRunner(cfg) }

// NewRegistry creates an empty telemetry registry. Pass it to
// BenchConfig.Registry or Cluster.WithRegistry to collect metrics.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewTraceRecorder creates a flow-event and span recorder for
// Cluster.WithObserver.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// Calibrate runs the two sample benchmarks on a built-in platform and
// returns the calibrated model (§IV-A2 pipeline).
func Calibrate(platform string, seed uint64) (Model, error) {
	plat, err := topology.ByName(platform)
	if err != nil {
		return Model{}, err
	}
	return CalibrateConfig(BenchConfig{Platform: plat, Seed: seed})
}

// CalibrateConfig is Calibrate for an explicit configuration (custom
// platform, profile, kernel or noise seed).
func CalibrateConfig(cfg BenchConfig) (Model, error) {
	runner, err := bench.NewRunner(cfg)
	if err != nil {
		return Model{}, err
	}
	return calib.CalibrateRunner(runner)
}

// CalibrateCurves extracts the model from externally produced benchmark
// curves (the two sample placements).
func CalibrateCurves(local, remote *Curve, nodesPerSocket int) (Model, error) {
	return calib.CalibrateModel(local, remote, nodesPerSocket)
}

// Evaluate runs the complete §IV evaluation for one built-in platform:
// benchmark all placements, calibrate from the samples, predict, and
// compute the error statistics.
func Evaluate(platform string, seed uint64) (*EvalResult, error) {
	plat, err := topology.ByName(platform)
	if err != nil {
		return nil, err
	}
	return eval.EvaluatePlatform(BenchConfig{Platform: plat, Seed: seed})
}

// EvaluateConfig is Evaluate for an explicit configuration.
func EvaluateConfig(cfg BenchConfig) (*EvalResult, error) { return eval.EvaluatePlatform(cfg) }

// EvaluateTestbed evaluates all six Table I platforms.
func EvaluateTestbed(seed uint64) ([]*EvalResult, error) { return eval.EvaluateTestbed(seed) }

// Table1 renders the testbed characteristics table.
func Table1() *Table { return eval.Table1(topology.Testbed()) }

// Table2 renders the model-error table from evaluation results.
func Table2(results []*EvalResult) *Table { return eval.Table2(results) }
