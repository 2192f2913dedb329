// Package bench reproduces the paper's benchmarking program (§IV-A1): for
// every possible number of computing cores it measures 1) computations
// alone, 2) communications alone, 3) both in parallel, for a given
// placement of computation and communication data on NUMA nodes.
//
// Computations are a weak-scaling non-temporal memset spread over the
// first socket's cores; communications receive large messages from a peer
// machine, their bandwidth being the receive bandwidth observed at the
// NIC. Steady-state bandwidths come from the memsys solver; seeded
// multiplicative noise reproduces run-to-run variability (kept "very low"
// as the paper reports, except on platforms flagged unstable).
package bench

import (
	"context"
	"fmt"

	"memcontention/internal/kernels"
	"memcontention/internal/memsys"
	"memcontention/internal/model"
	"memcontention/internal/obs"
	"memcontention/internal/rng"
	"memcontention/internal/topology"
	"memcontention/internal/units"
)

// Config parameterises a benchmark campaign.
type Config struct {
	// Platform and Profile describe the machine. Profile may be nil for
	// built-in platforms, in which case the hand-tuned profile is used.
	Platform *topology.Platform
	Profile  *memsys.Profile
	// Kernel is the computation kernel (default: non-temporal memset).
	Kernel kernels.Kernel
	// MessageSize is the received message size (default 64 MiB). The
	// steady-state bandwidth does not depend on it, but it is recorded
	// with the results and used by the DES cross-check.
	MessageSize units.ByteSize
	// Seed drives the measurement noise (default 1).
	Seed uint64
	// Repeats is the number of averaged measurement runs (default 3).
	Repeats int
	// Bidirectional adds the paper's §VI extension: a second,
	// send-direction stream (ping-pong instead of pong-only).
	Bidirectional bool
	// Registry, when set, receives benchmark telemetry (sample counts,
	// solver calls, bandwidth histograms). Nil disables instrumentation
	// at zero cost.
	Registry *obs.Registry
	// Context, when set, lets a campaign driver cancel the sweep between
	// placements: RunPlacement/RunAll/RunSamples return ctx's error at
	// the next point boundary. Nil (or context.Background()) keeps the
	// measurement loops check-free.
	Context context.Context
}

// withDefaults fills unset fields.
func (c Config) withDefaults() (Config, error) {
	if c.Platform == nil {
		return c, fmt.Errorf("bench: nil platform")
	}
	if c.Profile == nil {
		prof, err := memsys.ProfileFor(c.Platform.Name)
		if err != nil {
			return c, fmt.Errorf("bench: %w (pass an explicit profile for custom platforms)", err)
		}
		c.Profile = prof
	}
	if c.Kernel.DemandFactor == 0 {
		c.Kernel = kernels.New(kernels.NTMemset)
	}
	if c.MessageSize == 0 {
		c.MessageSize = 64 * units.MiB
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	return c, nil
}

// Point is one benchmark measurement: the four bandwidths for n computing
// cores (GB/s).
type Point struct {
	N         int     `json:"n"`
	CompAlone float64 `json:"comp_alone"`
	CommAlone float64 `json:"comm_alone"`
	CompPar   float64 `json:"comp_par"`
	CommPar   float64 `json:"comm_par"`
}

// TotalPar is the stacked total of Figure 2.
func (p Point) TotalPar() float64 { return p.CompPar + p.CommPar }

// Curve is the benchmark output for one placement: points for
// n = 1..cores(socket 0).
type Curve struct {
	Platform  string          `json:"platform"`
	Placement model.Placement `json:"placement"`
	Kernel    string          `json:"kernel"`
	Points    []Point         `json:"points"`
}

// Series extracts one measured series; name is one of "comp_alone",
// "comm_alone", "comp_par", "comm_par", "total_par".
func (c *Curve) Series(name string) ([]float64, error) {
	out := make([]float64, len(c.Points))
	for i, p := range c.Points {
		switch name {
		case "comp_alone":
			out[i] = p.CompAlone
		case "comm_alone":
			out[i] = p.CommAlone
		case "comp_par":
			out[i] = p.CompPar
		case "comm_par":
			out[i] = p.CommPar
		case "total_par":
			out[i] = p.TotalPar()
		default:
			return nil, fmt.Errorf("bench: unknown series %q", name)
		}
	}
	return out, nil
}

// Runner executes benchmark campaigns on one machine.
type Runner struct {
	cfg Config
	sys *memsys.System
	// comp holds, per NUMA node, the kernel streams of every socket-0 core
	// with data on that node, in ascending-ID order; MeasurePoint lays out
	// a prefix of them and the comm stream(s) in stack scratch. Built by
	// NewRunner and read-only afterwards, like every Runner field
	// MeasurePoint reads, so campaign workers may share a runner.
	comp [][]memsys.Stream
	m    benchInstruments
	done <-chan struct{}
	// noisePrefix and reps are the per-runner parts of every noise
	// label, hashed once (see noiseKey and noise).
	noisePrefix rng.Key
	reps        []rng.Key
}

// benchInstruments are the runner's telemetry hooks; nil instruments
// (no registry configured) record nothing.
type benchInstruments struct {
	points     *obs.Counter
	solves     *obs.Counter
	placements *obs.Counter
	compBW     *obs.Histogram
	commBW     *obs.Histogram
}

// newBenchInstruments registers the runner's instruments (all nil, and
// nothing built, when r is nil).
func newBenchInstruments(r *obs.Registry) benchInstruments {
	if r == nil {
		return benchInstruments{}
	}
	return benchInstruments{
		points:     r.Counter("memcontention_bench_points_total", "Benchmark points measured (one per core count per placement).", nil),
		solves:     r.Counter("memcontention_bench_solves_total", "Steady-state solver calls issued by the benchmark.", nil),
		placements: r.Counter("memcontention_bench_placements_total", "Placement sweeps completed.", nil),
		compBW:     r.Histogram("memcontention_bench_comp_bandwidth_gbps", "Measured parallel computation bandwidths.", obs.BandwidthBuckets(), nil),
		commBW:     r.Histogram("memcontention_bench_comm_bandwidth_gbps", "Measured parallel communication bandwidths.", obs.BandwidthBuckets(), nil),
	}
}

// NewRunner validates the configuration and builds the machine.
func NewRunner(cfg Config) (*Runner, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := cfg.Kernel.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	sys, err := memsys.New(cfg.Platform, cfg.Profile)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	r := &Runner{cfg: cfg, sys: sys, m: newBenchInstruments(cfg.Registry)}
	if cores := cfg.Platform.CoresOfSocket(0); len(cores) > 0 {
		r.comp = make([][]memsys.Stream, cfg.Platform.NNodes())
		for node := range r.comp {
			a := kernels.Assignment{Kernel: cfg.Kernel, Cores: cores, Node: topology.NodeID(node)}
			if r.comp[node], err = a.Streams(sys, 0); err != nil {
				return nil, fmt.Errorf("bench: %w", err)
			}
		}
	}
	if cfg.Context != nil {
		r.done = cfg.Context.Done()
	}
	r.noisePrefix = rng.Label(cfg.Platform.Name).Str("|").Str(cfg.Kernel.String()).Str("|comp@")
	r.reps = make([]rng.Key, cfg.Repeats)
	for k := range r.reps {
		r.reps[k] = rng.Label("rep").Int(k)
	}
	return r, nil
}

// canceled reports a pending cancellation (never true without a Context).
func (r *Runner) canceled() error {
	if r.done == nil {
		return nil
	}
	select {
	case <-r.done:
		return context.Cause(r.cfg.Context)
	default:
		return nil
	}
}

// Config returns the effective (defaulted) configuration.
func (r *Runner) Config() Config { return r.cfg }

// System returns the simulated machine.
func (r *Runner) System() *memsys.System { return r.sys }

// Registry returns the configured telemetry registry (nil when
// instrumentation is off); calibration and evaluation layers built on a
// runner inherit it.
func (r *Runner) Registry() *obs.Registry { return r.cfg.Registry }

// stackSet is the largest point layout MeasurePoint keeps on the stack:
// a socket of up to 32 cores, the largest of the testbed, plus two comm
// streams. A larger layout costs one allocation.
const stackSet = 34

// layout lays out a point's streams in dst's backing array (growing it
// when too short): comp, then the communication stream(s) for data on
// node, so that set[:nComp], set[nComp:] and set are the compute-alone,
// comm-alone and parallel stream sets. Comm IDs start above any compute
// stream id, so all three sets are in ascending-ID order, which the
// solver takes without sorting.
func (r *Runner) layout(dst []memsys.Stream, node topology.NodeID, comp []memsys.Stream) (set []memsys.Stream, nComp int) {
	set = append(dst[:0], comp...)
	set = append(set, memsys.Stream{ID: 1 << 20, Kind: memsys.KindComm, Node: node})
	if r.cfg.Bidirectional {
		// Ping-pong: the NIC simultaneously reads outgoing data from
		// the same node (§VI future work).
		set = append(set, memsys.Stream{ID: 1<<20 + 1, Kind: memsys.KindComm, Node: node})
	}
	return set, len(comp)
}

// noiseKey is the label of a point's noise streams up to the metric name:
// the bytes of fmt.Sprintf("%s|%s|%s|n=%d|", platform, kernel, pl, n),
// hashed without building the string, from the runner's hashed
// "platform|kernel|comp@" on.
func (r *Runner) noiseKey(pl model.Placement, n int) rng.Key {
	return r.noisePrefix.Int(int(pl.Comp)).Str("/comm@").Int(int(pl.Comm)).
		Str("|n=").Int(n).Str("|")
}

// noise returns the averaged multiplicative noise factor of the metric
// whose full label key spells: the mean of Repeats jitter draws, draw K
// from the child stream labelled "repK" (r.reps[K]).
func (r *Runner) noise(key rng.Key, rel float64) float64 {
	if rel <= 0 {
		return 1
	}
	s := key.Stream(r.cfg.Seed)
	sum := 0.0
	for _, rep := range r.reps {
		c := s.Child(rep)
		sum += c.Jitter(rel)
	}
	return sum / float64(r.cfg.Repeats)
}

func (r *Runner) compNoiseRel() float64 {
	q := r.cfg.Profile.Quirks
	if q.ComputeNoiseRel > q.MeasureNoiseRel {
		return q.ComputeNoiseRel
	}
	return q.MeasureNoiseRel
}

func (r *Runner) commNoiseRel() float64 {
	q := r.cfg.Profile.Quirks
	if q.CommNoiseRel > q.MeasureNoiseRel {
		return q.CommNoiseRel
	}
	return q.MeasureNoiseRel
}

// MeasurePoint runs the three benchmark steps for one core count.
func (r *Runner) MeasurePoint(pl model.Placement, n int) (Point, error) {
	if nMax := r.cfg.Platform.CoresPerSocket(); n < 1 || n > nMax {
		return Point{}, fmt.Errorf("bench: n=%d out of range [1,%d]", n, nMax)
	}
	if err := r.checkPlacement(pl); err != nil {
		return Point{}, err
	}
	var buf [stackSet]memsys.Stream
	set, nComp := r.layout(buf[:0], pl.Comm, r.comp[pl.Comp][:n])
	pt, err := r.measure(pl, n, set, nComp, "")
	if err != nil {
		return Point{}, err
	}
	r.m.points.Inc()
	r.m.solves.Add(3)
	r.m.compBW.Observe(pt.CompPar)
	r.m.commBW.Observe(pt.CommPar)
	return pt, nil
}

// measure solves the three stream sets of one point, laid out by layout
// with nComp compute streams first, and applies each bandwidth's noise.
// variant ("" or "mixed") prefixes the noise labels and error messages.
func (r *Runner) measure(pl model.Placement, n int, set []memsys.Stream, nComp int, variant string) (Point, error) {
	errPrefix, metric := "bench: ", ""
	if variant != "" {
		errPrefix, metric = "bench: "+variant+" ", variant+"_"
	}
	aloneComp, err := r.sys.SolveInto(set[:nComp], nil)
	if err != nil {
		return Point{}, fmt.Errorf("%scompute-alone solve: %w", errPrefix, err)
	}
	aloneComm, err := r.sys.SolveInto(set[nComp:], nil)
	if err != nil {
		return Point{}, fmt.Errorf("%scomm-alone solve: %w", errPrefix, err)
	}
	par, err := r.sys.SolveInto(set, nil)
	if err != nil {
		return Point{}, fmt.Errorf("%sparallel solve: %w", errPrefix, err)
	}
	key := r.noiseKey(pl, n).Str(metric)
	return Point{
		N:         n,
		CompAlone: aloneComp.ComputeTotal * r.noise(key.Str("comp_alone"), r.compNoiseRel()),
		CommAlone: aloneComm.CommTotal * r.noise(key.Str("comm_alone"), r.commNoiseRel()),
		CompPar:   par.ComputeTotal * r.noise(key.Str("comp_par"), r.compNoiseRel()),
		CommPar:   par.CommTotal * r.noise(key.Str("comm_par"), r.commNoiseRel()),
	}, nil
}

// checkPlacement rejects a placement naming a node the platform lacks.
func (r *Runner) checkPlacement(pl model.Placement) error {
	if nodes := r.cfg.Platform.NNodes(); int(pl.Comp) >= nodes || int(pl.Comm) >= nodes || pl.Comp < 0 || pl.Comm < 0 {
		return fmt.Errorf("bench: placement %v out of range for %d nodes", pl, nodes)
	}
	return nil
}

// RunPlacement sweeps n = 1..cores(socket 0) for one placement.
func (r *Runner) RunPlacement(pl model.Placement) (*Curve, error) {
	if err := r.checkPlacement(pl); err != nil {
		return nil, err
	}
	nMax := r.cfg.Platform.CoresPerSocket()
	curve := &Curve{
		Platform:  r.cfg.Platform.Name,
		Placement: pl,
		Kernel:    r.cfg.Kernel.String(),
		Points:    make([]Point, 0, nMax),
	}
	for n := 1; n <= nMax; n++ {
		if err := r.canceled(); err != nil {
			return nil, fmt.Errorf("bench: placement %v canceled: %w", pl, err)
		}
		pt, err := r.MeasurePoint(pl, n)
		if err != nil {
			return nil, err
		}
		curve.Points = append(curve.Points, pt)
	}
	r.m.placements.Inc()
	return curve, nil
}

// AllPlacements enumerates every (mcomp, mcomm) pair of the platform in
// row-major order (communication node major, matching the paper's figure
// layout: one row of subplots per communication placement).
func AllPlacements(plat *topology.Platform) []model.Placement {
	nodes := plat.NNodes()
	out := make([]model.Placement, 0, nodes*nodes)
	for comm := 0; comm < nodes; comm++ {
		for comp := 0; comp < nodes; comp++ {
			out = append(out, model.Placement{Comp: topology.NodeID(comp), Comm: topology.NodeID(comm)})
		}
	}
	return out
}

// SamplePlacements returns the two calibration placements of §IV-A2.
func SamplePlacements(plat *topology.Platform) (local, remote model.Placement) {
	m := topology.NodeID(plat.NodesPerSocket())
	return model.Placement{Comp: 0, Comm: 0}, model.Placement{Comp: m, Comm: m}
}

// RunAll measures every placement combination.
func (r *Runner) RunAll() ([]*Curve, error) {
	placements := AllPlacements(r.cfg.Platform)
	curves := make([]*Curve, 0, len(placements))
	for _, pl := range placements {
		c, err := r.RunPlacement(pl)
		if err != nil {
			return nil, err
		}
		curves = append(curves, c)
	}
	return curves, nil
}

// RunSamples measures only the two calibration placements, in the order
// (local, remote).
func (r *Runner) RunSamples() (local, remote *Curve, err error) {
	lp, rp := SamplePlacements(r.cfg.Platform)
	if local, err = r.RunPlacement(lp); err != nil {
		return nil, nil, err
	}
	if remote, err = r.RunPlacement(rp); err != nil {
		return nil, nil, err
	}
	return local, remote, nil
}
