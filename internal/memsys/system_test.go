package memsys

import (
	"reflect"
	"testing"
	"testing/quick"

	"memcontention/internal/topology"
)

// henriSys returns a memory system for the henri platform.
func henriSys(t *testing.T) *System {
	t.Helper()
	prof, err := ProfileFor("henri")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(topology.Henri(), prof)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestBuiltinSystems: Builtin returns one System per built-in platform,
// the same pointer on every call and for topology.Testbed's and ByName's
// platform alike, equal to one built with New from that platform and
// its hand-tuned profile; a new build of a built-in platform, or nil,
// gets none. A lookup allocates nothing.
func TestBuiltinSystems(t *testing.T) {
	seen := map[*System]string{}
	for _, plat := range topology.Testbed() {
		sys, ok := Builtin(plat)
		if !ok {
			t.Fatalf("%s: no built-in system", plat.Name)
		}
		byName, err := topology.ByName(plat.Name)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := Builtin(byName); again != sys {
			t.Errorf("%s: Builtin returned two systems", plat.Name)
		}
		if other, dup := seen[sys]; dup {
			t.Errorf("%s and %s share a system", plat.Name, other)
		}
		seen[sys] = plat.Name
		prof, err := ProfileFor(plat.Name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(byName, prof)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sys, want) {
			t.Errorf("%s: the built-in system differs from New(ByName, ProfileFor)", plat.Name)
		}
	}
	if sys, ok := Builtin(topology.Henri()); ok || sys != nil {
		t.Errorf("a new henri platform got the built-in system %p", sys)
	}
	if sys, ok := Builtin(nil); ok || sys != nil {
		t.Errorf("a nil platform got the built-in system %p", sys)
	}
	henri, _ := topology.ByName("henri")
	if got := testing.AllocsPerRun(100, func() { _, _ = Builtin(henri) }); got != 0 {
		t.Errorf("Builtin allocates %v times, want 0", got)
	}
}

// computeStreams builds n compute streams from socket 0 against node.
func computeStreams(sys *System, n int, node topology.NodeID) []Stream {
	cores := sys.Platform().CoresOfSocket(0)
	out := make([]Stream, n)
	for i := 0; i < n; i++ {
		out[i] = Stream{
			ID:     i,
			Kind:   KindCompute,
			Core:   cores[i],
			Node:   node,
			Demand: sys.ComputeDemand(cores[i], node),
		}
	}
	return out
}

func commStream(id int, node topology.NodeID) Stream {
	return Stream{ID: id, Kind: KindComm, Node: node}
}

func TestComputeDemandLocality(t *testing.T) {
	sys := henriSys(t)
	if d := sys.ComputeDemand(0, 0); d != sys.Profile().PerCoreLocal {
		t.Errorf("local demand = %v", d)
	}
	if d := sys.ComputeDemand(0, 1); d != sys.Profile().PerCoreRemote {
		t.Errorf("remote demand = %v", d)
	}
}

func TestUnsaturatedPerfectScaling(t *testing.T) {
	sys := henriSys(t)
	for n := 1; n <= 8; n++ {
		alloc, err := sys.Solve(computeStreams(sys, n, 0))
		if err != nil {
			t.Fatal(err)
		}
		want := float64(n) * sys.Profile().PerCoreLocal
		if !almost(alloc.ComputeTotal, want, 1e-9) {
			t.Errorf("n=%d: compute total %v, want %v (perfect scaling)", n, alloc.ComputeTotal, want)
		}
	}
}

func TestComputeAloneSaturates(t *testing.T) {
	sys := henriSys(t)
	n := sys.Platform().CoresPerSocket()
	alloc, err := sys.Solve(computeStreams(sys, n, 0))
	if err != nil {
		t.Fatal(err)
	}
	demand := float64(n) * sys.Profile().PerCoreLocal
	if alloc.ComputeTotal >= demand {
		t.Errorf("full-socket compute must saturate below demand: %v ≥ %v", alloc.ComputeTotal, demand)
	}
	if alloc.ComputeTotal > sys.Profile().Caps.CoreLocal.Plateau {
		t.Errorf("compute total %v exceeds the core envelope plateau", alloc.ComputeTotal)
	}
}

func TestCommAloneNominal(t *testing.T) {
	sys := henriSys(t)
	for node := topology.NodeID(0); node < 2; node++ {
		alloc, err := sys.Solve([]Stream{commStream(0, node)})
		if err != nil {
			t.Fatal(err)
		}
		if !almost(alloc.CommTotal, sys.Profile().NominalComm(node), 1e-9) {
			t.Errorf("comm alone on node %d = %v, want nominal", node, alloc.CommTotal)
		}
	}
}

func TestCommFloorGuaranteed(t *testing.T) {
	// §II-A: a minimal bandwidth is always available for communications.
	for _, name := range topology.Names() {
		plat, err := topology.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := ProfileFor(name)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := New(plat, prof)
		if err != nil {
			t.Fatal(err)
		}
		n := plat.CoresPerSocket()
		for node := topology.NodeID(0); int(node) < plat.NNodes(); node++ {
			streams := append(computeStreams(sys, n, node), commStream(1000, node))
			alloc, err := sys.Solve(streams)
			if err != nil {
				t.Fatal(err)
			}
			floor := prof.CommFloorFrac * prof.NominalComm(node)
			if alloc.CommTotal < floor-1e-9 {
				t.Errorf("%s node %d: comm %v below floor %v", name, node, alloc.CommTotal, floor)
			}
		}
	}
}

func TestContentionThrottlesComm(t *testing.T) {
	sys := henriSys(t)
	n := sys.Platform().CoresPerSocket()
	streams := append(computeStreams(sys, n, 0), commStream(1000, 0))
	alloc, err := sys.Solve(streams)
	if err != nil {
		t.Fatal(err)
	}
	nominal := sys.Profile().NominalComm(0)
	if alloc.CommTotal >= 0.5*nominal {
		t.Errorf("full-socket contention must throttle comm well below nominal: %v vs %v", alloc.CommTotal, nominal)
	}
}

func TestNoCrossNodeComputeImpact(t *testing.T) {
	// The paper's lessons learned: computations are almost not impacted
	// when the streams use different NUMA nodes.
	sys := henriSys(t)
	for n := 1; n <= sys.Platform().CoresPerSocket(); n++ {
		alone, err := sys.Solve(computeStreams(sys, n, 0))
		if err != nil {
			t.Fatal(err)
		}
		par, err := sys.Solve(append(computeStreams(sys, n, 0), commStream(1000, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if !almost(par.ComputeTotal, alone.ComputeTotal, 1e-9) {
			t.Errorf("n=%d: cross-node comm changed compute bandwidth: %v vs %v", n, par.ComputeTotal, alone.ComputeTotal)
		}
	}
}

func TestMeshPressureThrottlesCrossComm(t *testing.T) {
	// ... while communications ARE impacted in cross placements, which
	// is why equation (6) applies the contended local model there.
	sys := henriSys(t)
	n := sys.Platform().CoresPerSocket()
	par, err := sys.Solve(append(computeStreams(sys, n, 0), commStream(1000, 1)))
	if err != nil {
		t.Fatal(err)
	}
	nominal := sys.Profile().NominalComm(1)
	if par.CommTotal >= 0.6*nominal {
		t.Errorf("cross-placement comm under full compute load must be throttled: %v vs nominal %v", par.CommTotal, nominal)
	}
}

func TestAllocationNeverExceedsDemand(t *testing.T) {
	sys := henriSys(t)
	f := func(nRaw, nodeRaw uint8, withComm bool) bool {
		n := int(nRaw%18) + 1
		node := topology.NodeID(nodeRaw % 2)
		streams := computeStreams(sys, n, node)
		if withComm {
			streams = append(streams, commStream(1000, node))
		}
		alloc, err := sys.Solve(streams)
		if err != nil {
			return false
		}
		for _, st := range streams {
			d := st.Demand
			if d == 0 {
				d = sys.CommDemand(st.Node)
			}
			if alloc.Rate(st.ID) > d+1e-9 {
				return false
			}
			if alloc.Rate(st.ID) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSolveOrderIndependent(t *testing.T) {
	sys := henriSys(t)
	streams := append(computeStreams(sys, 10, 0), commStream(1000, 0))
	fwd, err := sys.Solve(streams)
	if err != nil {
		t.Fatal(err)
	}
	rev := make([]Stream, len(streams))
	for i, st := range streams {
		rev[len(streams)-1-i] = st
	}
	back, err := sys.Solve(rev)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range streams {
		if fwd.Rate(st.ID) != back.Rate(st.ID) {
			t.Fatalf("stream %d rate depends on slice order: %v vs %v", st.ID, fwd.Rate(st.ID), back.Rate(st.ID))
		}
	}
}

func TestSolveDeterministic(t *testing.T) {
	sys := henriSys(t)
	streams := append(computeStreams(sys, 14, 1), commStream(1000, 0))
	a, err := sys.Solve(streams)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Solve(streams)
	if err != nil {
		t.Fatal(err)
	}
	for id, r := range a.Rates {
		if b.Rates[id] != r {
			t.Fatalf("non-deterministic solve for stream %d", id)
		}
	}
}

func TestNodeCapRespected(t *testing.T) {
	sys := henriSys(t)
	for n := 1; n <= 18; n++ {
		streams := append(computeStreams(sys, n, 0), commStream(1000, 0))
		alloc, err := sys.Solve(streams)
		if err != nil {
			t.Fatal(err)
		}
		capMix := sys.Profile().Caps.MixLocal.At(float64(n))
		if alloc.Total > capMix+1e-9 {
			t.Errorf("n=%d: total %v exceeds mixed capacity %v", n, alloc.Total, capMix)
		}
	}
}

func TestLinkCapBinds(t *testing.T) {
	plat := topology.Henri()
	prof, err := ProfileFor("henri")
	if err != nil {
		t.Fatal(err)
	}
	prof.LinkCap = 10 // artificially tiny interconnect
	sys, err := New(plat, prof)
	if err != nil {
		t.Fatal(err)
	}
	// 8 cores of socket 0 stream to remote node 1: demand 8·3.4 = 27.2,
	// all crossing the link.
	alloc, err := sys.Solve(computeStreams(sys, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Total > 10+1e-9 {
		t.Errorf("link-crossing total %v exceeds link capacity 10", alloc.Total)
	}
}

func TestPCIeCapBinds(t *testing.T) {
	plat := topology.Henri()
	prof, err := ProfileFor("henri")
	if err != nil {
		t.Fatal(err)
	}
	prof.PCIeCap = 4
	sys, err := New(plat, prof)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := sys.Solve([]Stream{commStream(0, 0), commStream(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.CommTotal > 4+1e-9 {
		t.Errorf("comm total %v exceeds PCIe capacity 4", alloc.CommTotal)
	}
}

func TestCrossSocketCommFactor(t *testing.T) {
	plat := topology.Pyxis()
	prof, err := ProfileFor("pyxis")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(plat, prof)
	if err != nil {
		t.Fatal(err)
	}
	// A handful of cores, far from saturation: the only effect in the
	// cross placement is the quirk factor.
	streams := append(computeStreams(sys, 2, 1), commStream(1000, 0))
	alloc, err := sys.Solve(streams)
	if err != nil {
		t.Fatal(err)
	}
	want := prof.NominalComm(0) * prof.Quirks.CrossSocketCommFactor
	if !almost(alloc.CommTotal, want, 1e-6) {
		t.Errorf("cross-socket comm = %v, want %v (factor applied)", alloc.CommTotal, want)
	}
	// Same-socket placement: no factor.
	streams = append(computeStreams(sys, 2, 0), commStream(1000, 0))
	alloc, err = sys.Solve(streams)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(alloc.CommTotal, prof.NominalComm(0), 1e-6) {
		t.Errorf("same-socket comm = %v, want nominal", alloc.CommTotal)
	}
}

func TestSolveErrors(t *testing.T) {
	sys := henriSys(t)
	cases := []struct {
		name    string
		streams []Stream
	}{
		{"duplicate id", []Stream{commStream(1, 0), commStream(1, 1)}},
		{"node out of range", []Stream{commStream(0, 99)}},
		{"core out of range", []Stream{{ID: 0, Kind: KindCompute, Core: 99, Node: 0, Demand: 1}}},
		{"negative demand", []Stream{{ID: 0, Kind: KindComm, Node: 0, Demand: -1}}},
		{"unknown kind", []Stream{{ID: 0, Kind: StreamKind(9), Node: 0}}},
	}
	for _, c := range cases {
		if _, err := sys.Solve(c.streams); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestEmptySolve(t *testing.T) {
	sys := henriSys(t)
	alloc, err := sys.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Total != 0 {
		t.Error("empty solve must allocate nothing")
	}
}

func TestOccigenNeverThrottlesComm(t *testing.T) {
	// §IV-B(d): on occigen communications keep their nominal bandwidth
	// in every configuration; only computations pay.
	plat := topology.Occigen()
	prof, err := ProfileFor("occigen")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(plat, prof)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= plat.CoresPerSocket(); n++ {
		for node := topology.NodeID(0); node < 2; node++ {
			streams := append(computeStreams(sys, n, node), commStream(1000, node))
			alloc, err := sys.Solve(streams)
			if err != nil {
				t.Fatal(err)
			}
			if !almost(alloc.CommTotal, prof.NominalComm(node), 1e-6) {
				t.Errorf("occigen n=%d node=%d: comm %v, want nominal %v", n, node, alloc.CommTotal, prof.NominalComm(node))
			}
		}
	}
}

func TestStreamKindString(t *testing.T) {
	if KindCompute.String() != "compute" || KindComm.String() != "comm" {
		t.Error("kind strings wrong")
	}
	if StreamKind(7).String() == "" {
		t.Error("unknown kind must still render")
	}
}

func TestDiabloNICLocalitySplit(t *testing.T) {
	// §IV-B(c): 12.1 GB/s with data on node 0 vs 22.4 GB/s on node 1.
	prof, err := ProfileFor("diablo")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(topology.Diablo(), prof)
	if err != nil {
		t.Fatal(err)
	}
	a0, err := sys.Solve([]Stream{commStream(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := sys.Solve([]Stream{commStream(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ratio := a1.CommTotal / a0.CommTotal
	if ratio < 1.7 || ratio > 2.0 {
		t.Errorf("diablo NIC locality ratio = %.2f, want ≈1.85 (22.4/12.1)", ratio)
	}
}
