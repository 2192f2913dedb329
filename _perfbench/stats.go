package main

import (
	"fmt"
	"math"
	"time"

	"memcontention/internal/stats"
)

// minBeyond is how many ops must lie above a reported percentile: a tail
// figure resting on fewer is one or two unlucky ops, not a percentile.
const minBeyond = 10

// Op latencies go into log-spaced buckets 1 % wide, from 100 ns up to
// about 5 hours, so that a run's memory does not grow with its op count.
const (
	histMin     = 100e-9 // seconds
	histGrowth  = 1.01
	histBuckets = 2600
)

var logGrowth = math.Log(histGrowth)

// latencyHist counts op latencies.
type latencyHist struct {
	counts [histBuckets]int64
	n      int64
	sum    float64 // seconds
}

func (h *latencyHist) add(sec float64) {
	i := 0
	if sec > histMin {
		i = min(int(math.Log(sec/histMin)/logGrowth), histBuckets-1)
	}
	h.counts[i]++
	h.n++
	h.sum += sec
}

func (h *latencyHist) merge(o *latencyHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *latencyHist) mean() float64 { return h.sum / float64(h.n) }

// percentile returns the q-quantile (0 < q ≤ 1) by the nearest-rank rule,
// placed within its bucket by the rank, and how many ops lie after that
// rank.
func (h *latencyHist) percentile(q float64) (v float64, beyond int64) {
	if h.n == 0 {
		return math.NaN(), 0
	}
	rank := min(max(int64(math.Ceil(q*float64(h.n))), 1), h.n)
	var cum int64
	for i, c := range h.counts {
		if cum+c >= rank {
			f := (float64(rank-cum) - 0.5) / float64(c)
			return histMin * math.Pow(histGrowth, float64(i)+f), h.n - rank
		}
		cum += c
	}
	panic("perfbench: histogram counts do not add up to n")
}

// tailPercentile is percentile with the minBeyond rule enforced: it fails
// when the run holds too few ops for q.
func (h *latencyHist) tailPercentile(q float64) (float64, error) {
	v, beyond := h.percentile(q)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d ops beyond it, the run has %d of %d (run longer)",
			q*100, minBeyond, beyond, h.n)
	}
	return v, nil
}

// ratio is a measured share printed together with the counts it divides,
// so a reader can tell 36/96 from 3/8.
type ratio struct {
	num, base float64
}

// value is num/base, 0 for an empty base (nothing attempted, nothing
// wasted).
func (r ratio) value() float64 {
	if r.base == 0 {
		return 0
	}
	return r.num / r.base
}

func (r ratio) String() string {
	return fmt.Sprintf("%.6g (%s / %s)", r.value(), fmtNum(r.num), fmtNum(r.base))
}

// fmtNum prints whole numbers without a fraction and the rest with six
// significant digits.
func fmtNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// failedRatio is failed ops over attempted ops.
func failedRatio(attempted, failed int64) ratio {
	return ratio{num: float64(failed), base: float64(attempted)}
}

// replayReps is how often a replay repeats a timed call.
const replayReps = 5

// timeMedian runs fn replayReps times and returns the median wall time in
// seconds.
func timeMedian(fn func() error) (float64, error) {
	secs := make([]float64, 0, replayReps)
	for i := 0; i < replayReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return stats.Median(secs), nil
}
