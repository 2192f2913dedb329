package memsys

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"memcontention/internal/topology"
)

// solveSet returns n streams on sys in descending-ID order, so the solver
// has to sort them: every fourth a comm stream, the others compute
// streams of successive cores, spread over all NUMA nodes so that every
// pass (per-node arbitration, mesh pressure, link and PCIe caps) has work.
func solveSet(sys *System, n int) []Stream {
	plat := sys.Platform()
	streams := make([]Stream, n)
	for i := range streams {
		st := Stream{ID: n - i, Node: topology.NodeID(i % plat.NNodes())}
		if i%4 == 3 {
			st.Kind = KindComm
		} else {
			st.Core = topology.CoreID(i % plat.NCores())
		}
		streams[i] = st
	}
	return streams
}

// subnumaSys returns the memory system of henri-subnuma: two sockets of
// two NUMA nodes each.
func subnumaSys(tb testing.TB) *System {
	tb.Helper()
	prof, err := ProfileFor("henri-subnuma")
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := New(topology.HenriSubnuma(), prof)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// TestSolveIntoAllocs: the map-free solve allocates nothing up to its
// stack scratch, and one scratch slice past it.
func TestSolveIntoAllocs(t *testing.T) {
	sys := subnumaSys(t)
	for _, c := range []struct{ n, allocs int }{{8, 0}, {64, 0}, {stackStreams, 0}, {stackStreams + 1, 1}} {
		streams := solveSet(sys, c.n)
		rates := make([]float64, c.n)
		got := testing.AllocsPerRun(100, func() {
			if _, err := sys.SolveInto(streams, rates); err != nil {
				t.Fatal(err)
			}
		})
		if got != float64(c.allocs) {
			t.Errorf("%d streams: %v allocs per SolveInto, want %d", c.n, got, c.allocs)
		}
	}
}

// TestSolveIntoInputOrder: SolveInto writes each stream's rate at the
// stream's own index, gives Solve's rates and totals bit for bit, and
// returns the same totals without a rates slice; on the heap-spill path
// too.
func TestSolveIntoInputOrder(t *testing.T) {
	sys := subnumaSys(t)
	for _, n := range []int{1, 9, 2 * stackStreams} {
		streams := solveSet(sys, n)
		want, err := sys.Solve(streams)
		if err != nil {
			t.Fatal(err)
		}
		rates := make([]float64, n)
		got, err := sys.SolveInto(streams, rates)
		if err != nil {
			t.Fatal(err)
		}
		totalsOnly, err := sys.SolveInto(streams, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want.Totals || totalsOnly != want.Totals {
			t.Errorf("n=%d: totals %+v and %+v, Solve gives %+v", n, got, totalsOnly, want.Totals)
		}
		reversed := slices.Clone(streams)
		slices.Reverse(reversed)
		revRates := make([]float64, n)
		if _, err := sys.SolveInto(reversed, revRates); err != nil {
			t.Fatal(err)
		}
		for i, st := range streams {
			w := math.Float64bits(want.Rate(st.ID))
			if math.Float64bits(rates[i]) != w || math.Float64bits(revRates[n-1-i]) != w {
				t.Fatalf("n=%d: stream %d got %v, %v reversed; Solve grants %v", n, st.ID, rates[i], revRates[n-1-i], want.Rate(st.ID))
			}
		}
	}
	if _, err := sys.SolveInto(solveSet(sys, 3), make([]float64, 2)); err == nil {
		t.Error("a rates slice shorter than the streams must be an error")
	}
}

// BenchmarkSolve times the map-free solve on henri-subnuma at 2, 8, 32
// and 64 streams, and on one set past the stack scratch.
func BenchmarkSolve(b *testing.B) {
	sys := subnumaSys(b)
	for _, n := range []int{2, 8, 32, 64, 2 * stackStreams} {
		streams := solveSet(sys, n)
		rates := make([]float64, n)
		b.Run(fmt.Sprintf("streams=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sys.SolveInto(streams, rates); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNew times building a System, envelope tables included, on
// each of the six built-in platforms.
func BenchmarkNew(b *testing.B) {
	for _, plat := range topology.Testbed() {
		prof, err := ProfileFor(plat.Name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(plat.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(plat, prof); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
