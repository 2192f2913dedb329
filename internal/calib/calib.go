// Package calib extracts the model parameters of §III-A from benchmark
// curves, implementing the recipe of §IV-A2: "the evolution of the
// bandwidths over the number of computing cores is analyzed (it mostly
// looks for minima and maxima) and the parameters of the model are
// computed".
//
// Calibration only ever sees measured curves (with their noise); it never
// peeks into the simulator, exactly like the paper's tooling only sees
// benchmark output, not the silicon.
package calib

import (
	"fmt"
	"math"

	"memcontention/internal/bench"
	"memcontention/internal/model"
	"memcontention/internal/obs"
	"memcontention/internal/stats"
)

// DefaultPlateauTol is the relative tolerance used when locating maxima
// on noisy plateaus: the first point within 0.5 % of the global maximum is
// taken as "the" maximum, recovering the knee position.
const DefaultPlateauTol = 0.005

// Options tunes the parameter-extraction heuristics for unusually noisy
// input (the paper notes "higher prediction errors come most often from
// unstable input data").
type Options struct {
	// PlateauTol is the relative tolerance for locating maxima
	// (default 0.005).
	PlateauTol float64
	// SmoothWindow applies a centred moving average of this odd width
	// to the stacked total before knee detection (0 or 1 disables).
	// Raw values are still used for the bandwidth parameters.
	SmoothWindow int
	// Registry, when set, receives calibration telemetry (fit counts,
	// threshold values, residuals). Nil disables instrumentation.
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.PlateauTol <= 0 {
		o.PlateauTol = DefaultPlateauTol
	}
	if o.SmoothWindow < 0 {
		o.SmoothWindow = 0
	}
	return o
}

// Calibrate computes one model instantiation (M_local or M_remote) from
// the benchmark curve of the corresponding sample placement, with default
// options.
func Calibrate(curve *bench.Curve) (model.Params, error) {
	return CalibrateWith(curve, Options{})
}

// CalibrateWith is Calibrate with explicit heuristics.
func CalibrateWith(curve *bench.Curve, opts Options) (model.Params, error) {
	opts = opts.withDefaults()
	if curve == nil || len(curve.Points) == 0 {
		return model.Params{}, fmt.Errorf("calib: empty curve")
	}
	// The four series the recipe reads, in one block.
	nCores := len(curve.Points)
	block := make([]float64, 4*nCores)
	compAlone := block[:nCores:nCores]
	commAlone := block[nCores : 2*nCores : 2*nCores]
	commPar := block[2*nCores : 3*nCores : 3*nCores]
	totalPar := block[3*nCores:]
	for i, pt := range curve.Points {
		if pt.N != i+1 {
			return model.Params{}, fmt.Errorf("calib: curve points must cover n=1..N densely (point %d has n=%d)", i, pt.N)
		}
		compAlone[i], commAlone[i], commPar[i], totalPar[i] = pt.CompAlone, pt.CommAlone, pt.CommPar, pt.TotalPar()
	}

	var p model.Params

	// Bcomp_seq: the memory bandwidth of a single computing core.
	p.BCompSeq = compAlone[0]

	// Bcomm_seq: nominal network bandwidth; it does not depend on n, so
	// averaging the sweep reduces measurement noise.
	p.BCommSeq = stats.Mean(commAlone)
	if p.BCommSeq <= 0 {
		return model.Params{}, fmt.Errorf("calib: non-positive Bcomm_seq")
	}

	// Optional smoothing for knee detection on unstable data.
	compAloneKnee, totalParKnee := compAlone, totalPar
	if opts.SmoothWindow > 1 {
		compAloneKnee = stats.MovingAverage(compAlone, opts.SmoothWindow)
		totalParKnee = stats.MovingAverage(totalPar, opts.SmoothWindow)
	}

	// (NSeqMax, TSeqMax): maximum of the compute-alone curve.
	iSeq := stats.ArgmaxTolerant(compAloneKnee, opts.PlateauTol)
	p.NSeqMax = iSeq + 1
	p.TSeqMax = compAlone[iSeq]

	// (NParMax, TParMax): maximum of the stacked parallel total.
	iPar := stats.ArgmaxTolerant(totalParKnee, opts.PlateauTol)
	// The model requires NParMax ≤ NSeqMax; contention-free machines
	// whose total keeps growing until the last core violate it, in
	// which case both maxima collapse onto NSeqMax.
	if iPar > iSeq {
		iPar = iSeq
	}
	p.NParMax = iPar + 1
	p.TParMax = totalPar[iPar]

	// Tmax2_par: the stacked total with NSeqMax computing cores.
	p.TPar2 = totalPar[iSeq]

	// δl: bandwidth lost per added core between NParMax and NSeqMax.
	if iSeq > iPar {
		p.DeltaL = stats.SlopeBetween(totalPar, iPar, iSeq)
		p.DeltaL = -p.DeltaL // slope is negative going down; δl is a loss
	}

	// δr: bandwidth lost per added core beyond NSeqMax.
	if nCores-1 > iSeq {
		p.DeltaR = -stats.SlopeBetween(totalPar, iSeq, nCores-1)
	}

	// α: worst-case fraction of the nominal bandwidth kept by
	// communications, α = min_i Bcomm_par(i)/Bcomm_seq.
	minComm, _ := stats.Min(commPar)
	p.Alpha = stats.Clamp(minComm/p.BCommSeq, 1e-6, 1.0)

	if err := p.Validate(); err != nil {
		return model.Params{}, fmt.Errorf("calib: %s placement %v: %w", curve.Platform, curve.Placement, err)
	}
	recordCalibration(opts.Registry, curve, p, commAlone)
	return p, nil
}

// recordCalibration publishes one successful parameter extraction: the
// fitted threshold values as labelled gauges and the Bcomm_seq fit
// residuals (how far each comm-alone sample sits from the averaged
// nominal bandwidth) as a histogram. A nil registry records nothing.
func recordCalibration(reg *obs.Registry, curve *bench.Curve, p model.Params, commAlone []float64) {
	if reg == nil {
		return
	}
	reg.Counter("memcontention_calib_fits_total", "Successful parameter extractions.", nil).Inc()
	labels := obs.L{"platform": curve.Platform, "placement": curve.Placement.String()}
	reg.Gauge("memcontention_calib_alpha_ratio", "Worst-case fraction of nominal bandwidth kept by communications.", labels).Set(p.Alpha)
	reg.Gauge("memcontention_calib_nseq_max_cores", "Cores at the compute-alone bandwidth maximum (NSeqMax).", labels).Set(float64(p.NSeqMax))
	reg.Gauge("memcontention_calib_npar_max_cores", "Cores at the stacked parallel maximum (NParMax).", labels).Set(float64(p.NParMax))
	reg.Gauge("memcontention_calib_tseq_max_gbps", "Compute-alone bandwidth at NSeqMax (TSeqMax).", labels).Set(p.TSeqMax)
	reg.Gauge("memcontention_calib_tpar_max_gbps", "Stacked parallel bandwidth at NParMax (TParMax).", labels).Set(p.TParMax)
	residuals := reg.Histogram("memcontention_calib_residual_gbps", "Absolute residuals of the Bcomm_seq fit over the sweep.", obs.ExponentialBuckets(1e-3, 4, 12), nil)
	for _, v := range commAlone {
		residuals.Observe(math.Abs(v - p.BCommSeq))
	}
}

// CalibrateModel builds the full placement-combining model from the two
// sample curves (§III-C). nodesPerSocket is #m.
func CalibrateModel(local, remote *bench.Curve, nodesPerSocket int) (model.Model, error) {
	return CalibrateModelWith(local, remote, nodesPerSocket, Options{})
}

// CalibrateModelWith is CalibrateModel with explicit heuristics.
func CalibrateModelWith(local, remote *bench.Curve, nodesPerSocket int, opts Options) (model.Model, error) {
	lp, err := CalibrateWith(local, opts)
	if err != nil {
		return model.Model{}, fmt.Errorf("calib: local sample: %w", err)
	}
	rp, err := CalibrateWith(remote, opts)
	if err != nil {
		return model.Model{}, fmt.Errorf("calib: remote sample: %w", err)
	}
	m := model.Model{Local: lp, Remote: rp, NodesPerSocket: nodesPerSocket}
	if err := m.Validate(); err != nil {
		return model.Model{}, fmt.Errorf("calib: %w", err)
	}
	return m, nil
}

// CalibrateRunner runs the two sample placements on a benchmark runner
// and calibrates the model in one step — the paper's complete §IV-A2
// pipeline (two benchmark executions, then parameter extraction). The
// runner's telemetry registry, when configured, also receives the
// calibration instruments.
func CalibrateRunner(r *bench.Runner) (model.Model, error) {
	local, remote, err := r.RunSamples()
	if err != nil {
		return model.Model{}, fmt.Errorf("calib: sample runs: %w", err)
	}
	return CalibrateModelWith(local, remote, r.Config().Platform.NodesPerSocket(), Options{Registry: r.Registry()})
}
