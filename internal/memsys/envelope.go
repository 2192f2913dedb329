// Package memsys simulates the memory system of a NUMA machine at the
// fluid-flow level: steady data streams (core→memory and NIC→memory)
// traverse resources (memory controllers, the inter-socket link, PCIe) and
// a solver assigns each stream the bandwidth the hardware would grant it.
//
// The solver encodes the paper's §II-A hypotheses as an arbitration policy:
//
//   - memory buses have a finite capacity (an *envelope* that degrades as
//     more cores hammer the same controller — this is what produces the
//     δl/δr slopes of the model);
//   - CPU requests have priority over PCIe requests, so communications are
//     throttled first under contention;
//   - the NIC always keeps a guaranteed minimum bandwidth (the model's
//     α·Bcomm_seq floor) to prevent starvation.
//
// On top of the idealised policy, per-platform *quirks* reproduce the
// deviations the paper observed (henri's early communication throttling,
// pyxis' locality-sensitive unstable network, ARM's soft saturation).
// The quirks are what make the analytical model's predictions err by a few
// percent instead of matching the simulator exactly.
//
// System.SolveInto applies the policy as a fixed sequence of proportional
// stages over the streams, whatever the node count:
//
//  1. validation, in input order;
//  2. classification: each stream's demand, kind and link crossing, and
//     per memory controller the compute and comm demand sums and the
//     local, remote and comm stream counts;
//  3. per-controller arbitration on those sums alone (capacity envelope,
//     CPU priority, the NIC's decaying reserve above its floor), then
//     every stream's share of its kind's grant, proportional to demand;
//  4. mesh pressure on comm streams whose node serves no compute stream;
//  5. the inter-socket link cap on every stream crossing sockets;
//  6. the PCIe cap on the NIC's streams, then the totals.
//
// Stages 1 to 3 take one pass each. One more pass applies stage 4 and
// makes the sums stages 5 and 6 test, the totals among them; a cap that
// binds takes one pass more to scale its streams and redo the sums after
// it, and a cap that does not bind takes none.
//
// Every floating-point sum runs over the streams in ascending-ID order,
// whatever their order in the caller's slice, so rates and totals are
// bit-identical for any permutation of the same set. A set whose IDs
// already ascend is solved in place of a sorted copy; only other orders
// pay a sort.
package memsys

import (
	"fmt"
	"math"
)

// Envelope is a degrading capacity curve: a plateau followed by up to two
// linear decline segments, with optional smooth rounding at the knees.
//
//	cap(n) = Plateau − Slope1·hinge(n−Knee1) + (Slope1−Slope2)·hinge(n−Knee2)
//
// where hinge is max(0,·), softened over ±Soft cores when Soft > 0. The
// argument n is the number of core streams concurrently hitting the
// resource. A pure plateau has Slope1 = Slope2 = 0.
type Envelope struct {
	Plateau float64 // GB/s at low stream counts
	Knee1   float64 // streams where the first decline starts
	Slope1  float64 // GB/s lost per extra stream in (Knee1, Knee2]
	Knee2   float64 // streams where the slope changes
	Slope2  float64 // GB/s lost per extra stream beyond Knee2
	Soft    float64 // knee rounding width in streams (0 = sharp)
}

// hinge computes max(0, x), smoothly rounded with width s (softplus).
func hinge(x, s float64) float64 {
	if s <= 0 {
		return math.Max(0, x)
	}
	// Softplus with numerical guards: s·ln(1+e^(x/s)).
	t := x / s
	switch {
	case t > 30:
		return x
	case t < -30:
		return 0
	default:
		return s * math.Log1p(math.Exp(t))
	}
}

// At evaluates the envelope for n concurrent core streams. The result is
// clamped to be non-negative.
func (e Envelope) At(n float64) float64 {
	v := e.Plateau - e.Slope1*hinge(n-e.Knee1, e.Soft)
	if e.Knee2 > e.Knee1 {
		v += (e.Slope1 - e.Slope2) * hinge(n-e.Knee2, e.Soft)
	}
	if v < 0 {
		return 0
	}
	return v
}

// envTable is an Envelope tabulated at whole stream counts: at[n] holds
// env.At(float64(n)). The solver only evaluates envelopes at whole counts,
// so a lookup replaces the softplus; counts past the table fall back to
// env.At.
type envTable struct {
	env Envelope
	at  []float64
}

// tabulate fills table with e at 0..len(table)-1.
func tabulate(e Envelope, table []float64) envTable {
	for n := range table {
		table[n] = e.At(float64(n))
	}
	return envTable{env: e, at: table}
}

// eval returns env.At(float64(n)) for n >= 0 streams.
func (t *envTable) eval(n int) float64 {
	if n < len(t.at) {
		return t.at[n]
	}
	return t.env.At(float64(n))
}

// Validate checks envelope invariants.
func (e Envelope) Validate() error {
	for _, f := range [...]float64{e.Plateau, e.Slope1, e.Slope2, e.Knee1, e.Knee2, e.Soft} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("memsys: envelope has a non-finite parameter")
		}
	}
	switch {
	case e.Plateau <= 0:
		return fmt.Errorf("memsys: envelope plateau %.2f must be positive", e.Plateau)
	case e.Slope1 < 0 || e.Slope2 < 0:
		return fmt.Errorf("memsys: envelope slopes must be non-negative")
	case e.Knee1 < 0 || (e.Knee2 != 0 && e.Knee2 < e.Knee1):
		return fmt.Errorf("memsys: envelope knees out of order (knee1=%.1f knee2=%.1f)", e.Knee1, e.Knee2)
	case e.Soft < 0:
		return fmt.Errorf("memsys: envelope softness must be non-negative")
	}
	return nil
}

// softmin blends min(a, b) with smoothing k (GB/s). k == 0 is a hard min.
// It reproduces hardware that stops scaling *near* the capacity rather than
// exactly at it (observed on pyxis, §IV-B(e)).
func softmin(a, b, k float64) float64 {
	if k <= 0 {
		return math.Min(a, b)
	}
	// −k·ln(e^(−a/k) + e^(−b/k)) = lo − k·ln(1 + e^(−(hi−lo)/k)),
	// guarded for large exponents.
	lo, hi := math.Min(a, b), math.Max(a, b)
	d := (hi - lo) / k
	if d > 30 {
		return lo
	}
	return lo - k*math.Log1p(math.Exp(-d))
}
