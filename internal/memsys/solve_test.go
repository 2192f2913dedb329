package memsys

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
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

// ascendingSet returns solveSet's streams in ascending-ID order, the
// order engine.Flows and bench.Runner pass their sets in.
func ascendingSet(sys *System, n int) []Stream {
	streams := solveSet(sys, n)
	slices.Reverse(streams)
	return streams
}

// TestSolveIntoAllocs: the map-free solve allocates nothing up to its
// stack scratch, and one scratch slice past it, whether it sorts the set
// or takes it in ID order.
func TestSolveIntoAllocs(t *testing.T) {
	sys := subnumaSys(t)
	for _, c := range []struct{ n, allocs int }{{8, 0}, {64, 0}, {stackStreams, 0}, {stackStreams + 1, 1}} {
		for _, order := range []struct {
			name string
			set  func(*System, int) []Stream
		}{{"descending", solveSet}, {"ascending", ascendingSet}} {
			streams := order.set(sys, c.n)
			rates := make([]float64, c.n)
			got := testing.AllocsPerRun(100, func() {
				if _, err := sys.SolveInto(streams, rates); err != nil {
					t.Fatal(err)
				}
			})
			if got != float64(c.allocs) {
				t.Errorf("%d %s streams: %v allocs per SolveInto, want %d", c.n, order.name, got, c.allocs)
			}
		}
	}
}

// TestSolveMatchesReference: SolveInto grants every stream the rate the
// multi-pass reference solver grants, bit for bit, with the same totals
// and the same errors, on all six built-in profiles. The corpus holds
// the benchmark's stream sets (every placement and core count, with one
// and two comm streams) and random sets of up to 200 streams with
// default and explicit demands, each solved in ascending, descending and
// shuffled ID order, with a duplicated ID, and with a duplicate plus an
// invalid stream. Every stage after the per-controller arbitration, and
// pyxis' cross-socket comm factor, must scale some corpus set.
func TestSolveMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	var scaled [4]int
	sets := 0
	forEachSystem(t, func(name string, sys *System) {
		for _, set := range referenceCorpus(sys, rnd) {
			for _, streams := range reorderings(set, rnd) {
				compareSolve(t, sys, streams)
			}
			stagesScaling(sys, set, &scaled)
			sets++
		}
	})
	for i, stage := range [...]string{"mesh pressure", "link cap", "PCIe cap", "cross-socket comm factor"} {
		if scaled[i] == 0 {
			t.Errorf("%s scales none of the %d corpus sets", stage, sets)
		}
		t.Logf("%s scales %d of %d corpus sets", stage, scaled[i], sets)
	}
}

// referenceCorpus returns TestSolveMatchesReference's stream sets on sys,
// each valid and in ascending-ID order.
func referenceCorpus(sys *System, rnd *rand.Rand) [][]Stream {
	plat := sys.Platform()
	cores := plat.CoresOfSocket(0)
	var sets [][]Stream
	for comp := 0; comp < plat.NNodes(); comp++ {
		for comm := 0; comm < plat.NNodes(); comm++ {
			nics := []Stream{commStream(1<<20, topology.NodeID(comm)), commStream(1<<20+1, topology.NodeID(comm))}
			for n := 0; n <= len(cores); n++ {
				par := append(computeStreams(sys, n, topology.NodeID(comp)), nics...)
				sets = append(sets, par[:n], par[n:n+1], par[:n+1], par)
			}
		}
	}
	for _, n := range []int{1, 2, 3, 5, 8, 13, 16, 17, 32, 33, 64, stackStreams, stackStreams + 1, 200} {
		for rep := 0; rep < 8; rep++ {
			sets = append(sets, randomSet(sys, n, false, rnd), randomSet(sys, n, true, rnd))
		}
	}
	return sets
}

// randomSet draws n valid streams of sys with ascending IDs, a third at
// their default demand and the rest at up to 40 GB/s: about one comm
// stream in four and any core and node, or, split across sockets, one
// comm stream in two, with compute data on the first socket's nodes and
// comm data on the last socket's, where pyxis' cross-socket factor
// applies.
func randomSet(sys *System, n int, split bool, rnd *rand.Rand) []Stream {
	plat := sys.Platform()
	streams := make([]Stream, n)
	id := rnd.Intn(100) - 50
	for i := range streams {
		id += 1 + rnd.Intn(3)
		st := Stream{ID: id, Node: topology.NodeID(rnd.Intn(plat.NNodes()))}
		if split && rnd.Intn(2) == 0 || !split && rnd.Intn(4) == 0 {
			st.Kind = KindComm
			if split {
				nodes := plat.Sockets[plat.NSockets()-1].Nodes
				st.Node = nodes[rnd.Intn(len(nodes))]
			}
		} else {
			st.Core = topology.CoreID(rnd.Intn(plat.NCores()))
			if split {
				st.Node = plat.Sockets[0].Nodes[rnd.Intn(len(plat.Sockets[0].Nodes))]
			}
		}
		if rnd.Intn(3) != 0 {
			st.Demand = 40 * rnd.Float64()
		}
		streams[i] = st
	}
	return streams
}

// reorderings returns set (ascending IDs) as is, reversed, shuffled,
// shuffled with one ID duplicated, and shuffled with a duplicate ID
// before a stream on a node out of range.
func reorderings(set []Stream, rnd *rand.Rand) [][]Stream {
	reversed := slices.Clone(set)
	slices.Reverse(reversed)
	shuffled := slices.Clone(set)
	rnd.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	out := [][]Stream{set, reversed, shuffled}
	if len(set) < 2 {
		return out
	}
	dup := slices.Clone(shuffled)
	dup[rnd.Intn(len(dup)-1)+1].ID = dup[0].ID
	invalid := append(slices.Clone(dup), Stream{ID: dup[0].ID + 1, Kind: KindComm, Node: -1})
	return append(out, dup, invalid)
}

// compareSolve asserts that SolveInto and the reference solver agree on
// streams bit for bit: the same error text, or the same rates and the
// same totals, with and without a rates slice.
func compareSolve(t testing.TB, sys *System, streams []Stream) {
	t.Helper()
	name := sys.Platform().Name
	want, got := make([]float64, len(streams)), make([]float64, len(streams))
	wantT, wantErr := sys.referenceSolveInto(streams, want)
	gotT, gotErr := sys.SolveInto(streams, got)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: %d streams: error %v, reference %v", name, len(streams), gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	totalsOnly, err := sys.SolveInto(streams, nil)
	if err != nil {
		t.Fatalf("%s: SolveInto without rates: %v", name, err)
	}
	for _, tt := range []Totals{gotT, totalsOnly} {
		if !sameBits(tt.ComputeTotal, wantT.ComputeTotal) || !sameBits(tt.CommTotal, wantT.CommTotal) || !sameBits(tt.Total, wantT.Total) {
			t.Fatalf("%s: %d streams: totals %+v, reference %+v", name, len(streams), tt, wantT)
		}
	}
	for i, st := range streams {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: stream %+v of %d: rate %v, reference %v", name, st, len(streams), got[i], want[i])
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// stagesScaling adds to scaled[0..2] whether mesh pressure, the link cap
// and the PCIe cap change a rate of the valid set streams in the
// reference solver, and to scaled[3] whether pyxis' cross-socket factor
// applies to one of its comm streams.
func stagesScaling(sys *System, streams []Stream, scaled *[4]int) {
	o := make([]refSlot, len(streams))
	for i := range o {
		o[i].i = int32(i)
	}
	slices.SortFunc(o, func(a, b refSlot) int { return cmp.Compare(streams[a.i].ID, streams[b.i].ID) })
	for node, ok := nextNode(streams, -1); ok; node, ok = nextNode(streams, node) {
		sys.solveNode(streams, o, node)
	}
	for stage, apply := range []func([]Stream, []refSlot){sys.applyMeshPressure, sys.applyLinkCap, sys.applyPCIeCap} {
		before := slices.Clone(o)
		if apply(streams, o); !slices.Equal(before, o) {
			scaled[stage]++
		}
	}
	for _, st := range streams {
		if st.Kind == KindComm && sys.commFactor(streams, st.Node) != 1 {
			scaled[3]++
			break
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
// and 64 streams, and on one set past the stack scratch: in descending
// ID order, which SolveInto sorts, and (ordered/) in ascending ID order,
// the shape bench.Runner and engine.Flows pass, which it takes as is.
func BenchmarkSolve(b *testing.B) {
	sys := subnumaSys(b)
	for _, order := range []struct {
		prefix string
		set    func(*System, int) []Stream
	}{{"", solveSet}, {"ordered/", ascendingSet}} {
		for _, n := range []int{2, 8, 32, 64, 2 * stackStreams} {
			streams := order.set(sys, n)
			rates := make([]float64, n)
			b.Run(fmt.Sprintf("%sstreams=%d", order.prefix, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := sys.SolveInto(streams, rates); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
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
