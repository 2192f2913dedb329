package bench

import (
	"fmt"

	"memcontention/internal/kernels"
	"memcontention/internal/model"
	"memcontention/internal/topology"
)

// Mixed-socket benchmarking: the configuration the paper explicitly leaves
// for future work (§II-B: "Considering computing cores of all sockets
// accessing the same NUMA node — thus some of them are doing local
// accesses and other ones remote accesses — is another problematic").
//
// The simulator handles it with blended capacity envelopes, so the suite
// can measure it; the model cannot predict it (it only has pure-local and
// pure-remote instantiations), which makes this sweep the natural probe of
// the model's applicability boundary.

// mixedCores interleaves cores socket-0-first: 0, C, 1, C+1, … so that n
// cores split as evenly as possible between the two sockets.
func mixedCores(plat *topology.Platform, n int) ([]topology.CoreID, error) {
	s0 := plat.CoresOfSocket(0)
	s1 := plat.CoresOfSocket(1)
	if n < 1 || n > len(s0)+len(s1) {
		return nil, fmt.Errorf("bench: mixed n=%d out of range [1,%d]", n, len(s0)+len(s1))
	}
	out := make([]topology.CoreID, 0, n)
	for i := 0; len(out) < n; i++ {
		if i < len(s0) {
			out = append(out, s0[i])
		}
		if len(out) == n {
			break
		}
		if i < len(s1) {
			out = append(out, s1[i])
		}
	}
	return out, nil
}

// MeasureMixedPoint is MeasurePoint with computing cores drawn
// alternately from both sockets (weak scaling, same kernel).
func (r *Runner) MeasureMixedPoint(pl model.Placement, n int) (Point, error) {
	cores, err := mixedCores(r.cfg.Platform, n)
	if err != nil {
		return Point{}, err
	}
	a := kernels.Assignment{Kernel: r.cfg.Kernel, Cores: cores, Node: pl.Comp}
	comp, err := a.Streams(r.sys, 0)
	if err != nil {
		return Point{}, err
	}
	set, nComp := r.layout(nil, pl.Comm, comp)
	return r.measure(pl, n, set, nComp, "mixed")
}

// RunMixedPlacement sweeps n = 1..NCores (both sockets) for one placement
// with interleaved core selection.
func (r *Runner) RunMixedPlacement(pl model.Placement) (*Curve, error) {
	if err := r.checkPlacement(pl); err != nil {
		return nil, err
	}
	nMax := r.cfg.Platform.NCores()
	curve := &Curve{
		Platform:  r.cfg.Platform.Name + "+mixed",
		Placement: pl,
		Kernel:    r.cfg.Kernel.String(),
		Points:    make([]Point, 0, nMax),
	}
	for n := 1; n <= nMax; n++ {
		pt, err := r.MeasureMixedPoint(pl, n)
		if err != nil {
			return nil, err
		}
		curve.Points = append(curve.Points, pt)
	}
	return curve, nil
}
