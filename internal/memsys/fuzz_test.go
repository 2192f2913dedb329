package memsys

import (
	"encoding/binary"
	"math"
	"testing"

	"memcontention/internal/topology"
)

// FuzzSolve checks the arbitration invariants on arbitrary stream sets
// over all six built-in profiles: rates are finite, non-negative and
// never above their demand; the inter-socket link, PCIe and every
// memory controller stay within capacity; the result does not depend
// on stream order; and a non-finite demand is an error. The NIC floor
// is not asserted: the link and PCIe caps apply after it by design.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, 0})                        // one compute stream at its default demand
	f.Add([]byte{3, 0, 0, 0, 0})                        // one comm stream at the NIC's nominal rate
	f.Add([]byte{2, 0, 1, 0, 0, 3, 0, 0, 0, 0})         // compute on node 1, comm on node 0
	f.Add([]byte{0, 0, 0, 255, 255, 1, 0, 1, 255, 255}) // 100 GB/s demands
	pattern := make([]byte, 5*64)
	for i := range pattern {
		pattern[i] = byte(i * 37)
	}
	f.Add(pattern)

	var systems []*System
	for _, plat := range topology.Testbed() {
		prof, err := ProfileFor(plat.Name)
		if err != nil {
			f.Fatal(err)
		}
		sys, err := New(plat, prof)
		if err != nil {
			f.Fatal(err)
		}
		systems = append(systems, sys)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, sys := range systems {
			checkSolve(t, sys, fuzzStreams(sys, data))
		}
	})
}

// fuzzStreams decodes data into at most 64 streams of sys, five bytes
// each: flags (bit 0 selects a comm stream, bit 1 the default demand),
// issuing core, target node, and a little-endian 16-bit demand scaled
// onto [0, 100) GB/s.
func fuzzStreams(sys *System, data []byte) []Stream {
	plat := sys.Platform()
	streams := make([]Stream, min(len(data)/5, 64))
	for i := range streams {
		b := data[5*i : 5*i+5]
		st := Stream{
			ID:   i,
			Core: topology.CoreID(int(b[1]) % plat.NCores()),
			Node: topology.NodeID(int(b[2]) % plat.NNodes()),
		}
		if b[0]&1 != 0 {
			st.Kind = KindComm
		}
		if b[0]&2 == 0 {
			st.Demand = float64(binary.LittleEndian.Uint16(b[3:])) / 65536 * 100
		}
		streams[i] = st
	}
	return streams
}

// checkSolve solves streams on sys and asserts FuzzSolve's invariants.
func checkSolve(t *testing.T, sys *System, streams []Stream) {
	t.Helper()
	name := sys.Platform().Name
	alloc, err := sys.Solve(streams)
	if err != nil {
		t.Fatalf("%s: Solve(%v): %v", name, streams, err)
	}
	prof := sys.Profile()
	// Capacity sums are scaled shares that may round a few ulps over.
	const slack = 1 + 1e-9
	var xlink, comm float64
	nodeTotal := make([]float64, sys.Platform().NNodes())
	nodeCompute := make([]int, len(nodeTotal))
	for _, st := range streams {
		r := alloc.Rate(st.ID)
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			t.Fatalf("%s: stream %+v got rate %v", name, st, r)
		}
		demand, factor := st.Demand, 1.0
		if st.Kind == KindComm {
			if demand == 0 {
				demand = sys.CommDemand(st.Node)
			}
			factor = math.Max(1, sys.commFactor(streams, st.Node))
			comm += r
		} else {
			if demand == 0 {
				demand = sys.ComputeDemand(st.Core, st.Node)
			}
			nodeCompute[st.Node]++
		}
		if r > demand*factor {
			t.Fatalf("%s: stream %+v got %v over its demand %v (factor %v)", name, st, r, demand, factor)
		}
		if sys.crossesLink(st) {
			xlink += r
		}
		nodeTotal[st.Node] += r
	}
	if xlink > prof.LinkCap*slack {
		t.Fatalf("%s: link carries %v over its %v cap", name, xlink, prof.LinkCap)
	}
	if comm > prof.PCIeCap*slack {
		t.Fatalf("%s: PCIe carries %v over its %v cap", name, comm, prof.PCIeCap)
	}
	for node, total := range nodeTotal {
		n, c := float64(nodeCompute[node]), prof.Caps
		if env := max(c.CoreLocal.At(n), c.CoreRemote.At(n), c.MixLocal.At(n), c.MixRemote.At(n)); total > env*slack {
			t.Fatalf("%s: node %d serves %v over its largest envelope %v at %v compute streams", name, node, total, env, n)
		}
	}

	// Reversed and rotated, the same set must solve to the same bits.
	shuffled := make([]Stream, len(streams))
	for i, st := range streams {
		shuffled[(len(streams)-1-i+len(streams)/3)%len(streams)] = st
	}
	again, err := sys.Solve(shuffled)
	if err != nil {
		t.Fatalf("%s: shuffled Solve: %v", name, err)
	}
	for _, st := range streams {
		if a, b := alloc.Rate(st.ID), again.Rate(st.ID); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: stream %d got %v, %v after shuffling", name, st.ID, a, b)
		}
	}

	if len(streams) == 0 {
		return
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		poisoned := append([]Stream(nil), streams...)
		poisoned[len(poisoned)/2].Demand = bad
		if _, err := sys.Solve(poisoned); err == nil {
			t.Fatalf("%s: a %v demand solved without error", name, bad)
		}
	}
}
