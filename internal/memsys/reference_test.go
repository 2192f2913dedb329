package memsys

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"memcontention/internal/topology"
)

// This file holds the reference solver TestSolveMatchesReference and
// FuzzSolve compare SolveInto against bit for bit: the same arbitration
// policy written as separate passes, two over every stream per loaded
// NUMA node and two per later stage, re-deriving each stream's demand,
// comm factor and link crossing wherever a pass needs them. It shares
// checkStream, blendEnv, commReserve, splitScale, softmin and
// crossesLink with the solver.

// refSlot is one stream's place in the ID-sorted order referenceSolveInto
// works in.
type refSlot struct {
	i    int32   // index into the caller's stream slice
	mesh bool    // comm stream on a node no compute stream targets
	rate float64 // granted bandwidth (GB/s)
}

// referenceSolveInto is SolveInto as a sequence of passes over the
// ID-sorted slots: one per loaded NUMA node, then mesh pressure, the link
// cap and the PCIe cap, each scanning every slot.
func (s *System) referenceSolveInto(streams []Stream, rates []float64) (Totals, error) {
	if rates != nil && len(rates) != len(streams) {
		return Totals{}, fmt.Errorf("memsys: %d rates for %d streams", len(rates), len(streams))
	}
	for i := range streams {
		if err := s.checkStream(&streams[i]); err != nil {
			return Totals{}, err
		}
	}
	var buf [stackStreams]refSlot
	o := buf[:0]
	if len(streams) > len(buf) {
		o = make([]refSlot, 0, len(streams))
	}
	for i := range streams {
		o = append(o, refSlot{i: int32(i)})
	}
	slices.SortFunc(o, func(a, b refSlot) int { return cmp.Compare(streams[a.i].ID, streams[b.i].ID) })
	for k := 1; k < len(o); k++ {
		if id := streams[o[k].i].ID; id == streams[o[k-1].i].ID {
			return Totals{}, fmt.Errorf("memsys: duplicate stream id %d", id)
		}
	}

	for node, ok := nextNode(streams, -1); ok; node, ok = nextNode(streams, node) {
		s.solveNode(streams, o, node)
	}
	s.applyMeshPressure(streams, o)
	s.applyLinkCap(streams, o)
	s.applyPCIeCap(streams, o)

	var t Totals
	for _, sl := range o {
		t.Total += sl.rate
		if streams[sl.i].Kind == KindCompute {
			t.ComputeTotal += sl.rate
		} else {
			t.CommTotal += sl.rate
		}
		if rates != nil {
			rates[sl.i] = sl.rate
		}
	}
	return t, nil
}

// nextNode returns the lowest NUMA node above after that a stream
// targets, so the per-controller pass visits exactly the loaded nodes in
// ascending order.
func nextNode(streams []Stream, after topology.NodeID) (topology.NodeID, bool) {
	next, ok := topology.NodeID(0), false
	for i := range streams {
		if nd := streams[i].Node; nd > after && (!ok || nd < next) {
			next, ok = nd, true
		}
	}
	return next, ok
}

// computeDemand is a compute stream's demand: its own, or the core's
// kernel rate against its node when it leaves Demand at zero.
func (s *System) computeDemand(st *Stream) float64 {
	if st.Demand != 0 {
		return st.Demand
	}
	return s.ComputeDemand(st.Core, st.Node)
}

// commDemand is a comm stream's demand before the quirk factor: its own,
// or the NIC's nominal rate for its node when it leaves Demand at zero.
func (s *System) commDemand(st *Stream) float64 {
	if st.Demand != 0 {
		return st.Demand
	}
	return s.CommDemand(st.Node)
}

// commFactor reports the quirk factor applied to a comm stream's demand:
// on platforms whose network is sensitive to the computation side (pyxis),
// the NIC slows down when every concurrent computation works on the other
// socket. It looks at the whole set, in any order.
func (s *System) commFactor(streams []Stream, commNode topology.NodeID) float64 {
	f := s.prof.Quirks.CrossSocketCommFactor
	if f == 0 || f == 1 {
		return 1
	}
	commSocket, err := s.plat.SocketOfNode(commNode)
	if err != nil {
		return 1
	}
	sawCompute, allOtherSocket := false, true
	for _, st := range streams {
		if st.Kind != KindCompute {
			continue
		}
		sawCompute = true
		sock, err := s.plat.SocketOfNode(st.Node)
		if err == nil && sock == commSocket {
			allOtherSocket = false
		}
	}
	if sawCompute && allOtherSocket {
		return f
	}
	return 1
}

// solveNode arbitrates the streams one memory controller serves: two
// walks over the ID-sorted slots, one to sum the demands and one to grant
// the rates. Each grant splits the kind's aggregate among its streams in
// proportion to their demands, never above any stream's demand (with
// equal demands an even split; the split leaves slack only when the
// aggregate exceeds the total demand, and then every stream gets its full
// demand).
func (s *System) solveNode(streams []Stream, o []refSlot, node topology.NodeID) {
	q := s.prof.Quirks
	cf := s.commFactor(streams, node)

	// Aggregate compute and comm demand against this controller (comm at
	// its nominal rate, locality- and quirk-adjusted).
	var compDemand, commDemand float64
	nLocal, nRemote, nComm := 0, 0, 0
	for _, sl := range o {
		st := &streams[sl.i]
		if st.Node != node {
			continue
		}
		if st.Kind == KindCompute {
			compDemand += s.computeDemand(st)
			if s.plat.CrossesLink(s.plat.Cores[st.Core].Socket, node) {
				nRemote++
			} else {
				nLocal++
			}
		} else {
			commDemand += s.commDemand(st) * cf
			nComm++
		}
	}
	n := nLocal + nRemote
	capCore := blendEnv{&s.coreLocal, &s.coreRemote, nLocal, nRemote}.at(n)
	compAgg := softmin(compDemand, capCore, q.SoftSaturationGB)

	commAgg := 0.0
	if nComm > 0 {
		mixEnv := blendEnv{&s.mixLocal, &s.mixRemote, nLocal, nRemote}
		capMix := mixEnv.at(n)
		perCore := 0.0
		if n > 0 {
			perCore = compDemand / float64(n)
		}
		// The NIC's share: its nominal demand, gradually decayed once
		// the system is past the saturation onset, never below the
		// guaranteed floor, and physically bounded by the controller.
		commAgg = math.Min(s.commReserve(mixEnv, n, perCore, commDemand, nRemote == 0), capMix)
		// The cores get what the controller has left.
		compAgg = math.Min(compAgg, math.Max(0, capMix-commAgg))
	}

	compScale, commScale := splitScale(compAgg, compDemand), splitScale(commAgg, commDemand)
	for k := range o {
		st := &streams[o[k].i]
		if st.Node != node {
			continue
		}
		if st.Kind == KindCompute {
			o[k].rate = s.computeDemand(st) * compScale
		} else {
			o[k].rate = s.commDemand(st) * cf * commScale
			o[k].mesh = n == 0
		}
	}
}

// applyMeshPressure models contention between NIC DMA and core traffic
// that do NOT share a memory controller. On real machines the two stream
// families still meet in the socket mesh / caching agents, so
// communications are throttled by concurrent computations in (almost)
// every placement, not only same-node ones — this is why the paper's
// equation (6) applies the *local contended* model to cross placements and
// still matches measurements. Computations, in contrast, are unaffected
// (the paper's "lessons learned": only same-node placements hurt
// computations).
//
// The mesh grants cross-node comm streams what a local controller would
// have left over: MixLocal(n) minus the bandwidth actually granted to the
// n computing cores, never below the guaranteed NIC floor. Platforms with
// CommFloorFrac = 1 (occigen) are therefore exempt, matching the paper's
// observation that occigen never throttles communications.
func (s *System) applyMeshPressure(streams []Stream, o []refSlot) {
	// Mesh occupancy is driven by the requests the cores *issue*, not
	// by the bandwidth they are granted: a core streaming to a remote
	// node is latency-bound and holds as many mesh slots as a local
	// stream would, so its occupancy is counted at its local-equivalent
	// demand.
	occDemand := 0.0
	nCompute := 0
	allLocalClass := true
	for _, sl := range o {
		st := &streams[sl.i]
		if st.Kind != KindCompute {
			continue
		}
		d := s.computeDemand(st)
		if s.plat.CrossesLink(s.plat.Cores[st.Core].Socket, st.Node) {
			allLocalClass = false
			d *= s.prof.PerCoreLocal / s.prof.PerCoreRemote
		}
		occDemand += d
		nCompute++
	}
	if nCompute == 0 {
		return
	}
	nCross := 0
	curSum, floorSum := 0.0, 0.0
	for _, sl := range o {
		if !sl.mesh {
			continue
		}
		st := &streams[sl.i]
		nCross++
		curSum += sl.rate
		floorSum += s.prof.CommFloorFrac * s.commDemand(st) * s.commFactor(streams, st.Node)
	}
	if nCross == 0 || curSum <= 0 {
		return
	}
	occupancy := math.Min(occDemand, s.coreLocal.eval(nCompute))
	capacityLeft := s.mixLocal.eval(nCompute) - occupancy
	env := blendEnv{local: &s.mixLocal, nLocal: 1}
	reserve := s.commReserve(env, nCompute, occDemand/float64(nCompute), curSum, allLocalClass)
	target := math.Min(curSum, math.Min(capacityLeft, reserve))
	target = math.Max(target, floorSum)
	if target >= curSum {
		return
	}
	if target < 0 {
		target = 0
	}
	scale := target / curSum
	for k := range o {
		if o[k].mesh {
			o[k].rate *= scale
		}
	}
}

// applyLinkCap enforces the inter-socket link capacity: every stream whose
// path crosses sockets shares LinkCap; excess is removed proportionally.
func (s *System) applyLinkCap(streams []Stream, o []refSlot) {
	totalCross := 0.0
	for _, sl := range o {
		if s.crossesLink(streams[sl.i]) {
			totalCross += sl.rate
		}
	}
	if totalCross <= s.prof.LinkCap || totalCross == 0 {
		return
	}
	scale := s.prof.LinkCap / totalCross
	for k := range o {
		if s.crossesLink(streams[o[k].i]) {
			o[k].rate *= scale
		}
	}
}

// applyPCIeCap bounds the sum of NIC DMA streams by the PCIe capacity.
func (s *System) applyPCIeCap(streams []Stream, o []refSlot) {
	total := 0.0
	for _, sl := range o {
		if streams[sl.i].Kind == KindComm {
			total += sl.rate
		}
	}
	if total <= s.prof.PCIeCap || total == 0 {
		return
	}
	scale := s.prof.PCIeCap / total
	for k := range o {
		if streams[o[k].i].Kind == KindComm {
			o[k].rate *= scale
		}
	}
}
