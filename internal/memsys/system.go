package memsys

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"memcontention/internal/topology"
)

// StreamKind distinguishes the two stream families of Figure 1.
type StreamKind int

// Stream kinds.
const (
	// KindCompute is a core-issued stream (non-temporal stores of the
	// computation kernel).
	KindCompute StreamKind = iota
	// KindComm is a NIC DMA stream (message data arriving from the
	// network and stored to memory).
	KindComm
)

// String implements fmt.Stringer.
func (k StreamKind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindComm:
		return "comm"
	default:
		return fmt.Sprintf("StreamKind(%d)", int(k))
	}
}

// Stream is one steady data flow through the memory system.
type Stream struct {
	// ID must be unique within one Solve call; allocations are keyed
	// by it.
	ID int
	// Kind selects the arbitration class.
	Kind StreamKind
	// Core is the issuing core (compute streams only).
	Core topology.CoreID
	// Node is the NUMA node holding the stream's data.
	Node topology.NodeID
	// Demand is the unconstrained rate in GB/s. For comm streams a zero
	// demand means "the NIC's nominal rate for this node".
	Demand float64
}

// Totals aggregates the granted bandwidth per stream kind (GB/s), each
// summed in ascending stream-ID order.
type Totals struct {
	ComputeTotal float64
	CommTotal    float64
	// Total sums every stream's rate (not ComputeTotal + CommTotal,
	// which may round differently).
	Total float64
}

// Allocation is the solver's result: the bandwidth granted to each stream.
type Allocation struct {
	// Rates maps stream ID to granted bandwidth (GB/s).
	Rates map[int]float64
	Totals
}

// Rate returns the granted bandwidth of a stream (0 for unknown IDs).
func (a *Allocation) Rate(id int) float64 { return a.Rates[id] }

// System is a memory-system instance: a platform structure plus its
// hardware behaviour profile.
type System struct {
	plat *topology.Platform
	prof *Profile
	// coreLocal, coreRemote, mixLocal and mixRemote are prof.Caps'
	// envelopes, tabulated at 0..NCores streams.
	coreLocal, coreRemote, mixLocal, mixRemote envTable
}

// New builds a memory system, validating profile against platform. It
// snapshots the profile's capacity envelopes (Caps) into lookup tables,
// so a profile must be changed before New, not after: the System keeps
// solving with the envelopes it was built with.
func New(plat *topology.Platform, prof *Profile) (*System, error) {
	if err := plat.Validate(); err != nil {
		return nil, fmt.Errorf("memsys: invalid platform: %w", err)
	}
	if err := prof.Validate(plat); err != nil {
		return nil, fmt.Errorf("memsys: invalid profile for %s: %w", plat.Name, err)
	}
	m := plat.NCores() + 1
	tab := make([]float64, 4*m)
	return &System{
		plat:       plat,
		prof:       prof,
		coreLocal:  tabulate(prof.Caps.CoreLocal, tab[:m:m]),
		coreRemote: tabulate(prof.Caps.CoreRemote, tab[m:2*m:2*m]),
		mixLocal:   tabulate(prof.Caps.MixLocal, tab[2*m:3*m:3*m]),
		mixRemote:  tabulate(prof.Caps.MixRemote, tab[3*m:]),
	}, nil
}

// Platform returns the underlying platform.
func (s *System) Platform() *topology.Platform { return s.plat }

// Profile returns the underlying hardware profile.
func (s *System) Profile() *Profile { return s.prof }

// ComputeDemand reports the unconstrained rate of one core's kernel stream
// against the given node (the hardware Bcomp_seq, locality-dependent).
func (s *System) ComputeDemand(core topology.CoreID, node topology.NodeID) float64 {
	if s.plat.CrossesLink(s.plat.Cores[core].Socket, node) {
		return s.prof.PerCoreRemote
	}
	return s.prof.PerCoreLocal
}

// CommDemand reports the NIC's nominal receive rate for data on node (the
// hardware Bcomm_seq, locality-dependent).
func (s *System) CommDemand(node topology.NodeID) float64 {
	return s.prof.NominalComm(node)
}

// Solve assigns a bandwidth to every stream according to the arbitration
// policy described in the package comment. It is deterministic: the result
// depends only on the stream set (IDs included), never on slice order. It
// is SolveInto plus the Rates map.
func (s *System) Solve(streams []Stream) (*Allocation, error) {
	rates := make([]float64, len(streams))
	t, err := s.SolveInto(streams, rates)
	if err != nil {
		return nil, err
	}
	alloc := &Allocation{Rates: make(map[int]float64, len(streams)), Totals: t}
	for i, st := range streams {
		alloc.Rates[st.ID] = rates[i]
	}
	return alloc, nil
}

// stackStreams is the largest stream set SolveInto solves in stack
// scratch; a larger one spills a single scratch slice to the heap.
const stackStreams = 128

// slot is one stream's place in the ID-sorted order SolveInto works in.
type slot struct {
	i    int32   // index into the caller's stream slice
	mesh bool    // comm stream on a node no compute stream targets
	rate float64 // granted bandwidth (GB/s)
}

// SolveInto is the solver core Solve wraps, without the Rates map: it
// writes the rate granted to streams[i] to rates[i], in input order, and
// returns the per-kind totals. rates must hold len(streams) elements, or
// be nil when only the totals are wanted.
//
// Every floating-point sum runs over the streams in ascending-ID order,
// whatever their order in the slice, so rates and totals are bit-identical
// for any permutation of the same set. Sets of up to stackStreams (128)
// streams are sorted and solved in fixed-size stack scratch and cost no
// allocation; a larger set spills one scratch slice to the heap. System
// holds no mutable state, so SolveInto is safe for concurrent use.
func (s *System) SolveInto(streams []Stream, rates []float64) (Totals, error) {
	if rates != nil && len(rates) != len(streams) {
		return Totals{}, fmt.Errorf("memsys: %d rates for %d streams", len(rates), len(streams))
	}
	for i := range streams {
		if err := s.checkStream(&streams[i]); err != nil {
			return Totals{}, err
		}
	}
	var buf [stackStreams]slot
	o := buf[:0]
	if len(streams) > len(buf) {
		o = make([]slot, 0, len(streams))
	}
	for i := range streams {
		o = append(o, slot{i: int32(i)})
	}
	slices.SortFunc(o, func(a, b slot) int { return cmp.Compare(streams[a.i].ID, streams[b.i].ID) })
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

func (s *System) checkStream(st *Stream) error {
	if int(st.Node) < 0 || int(st.Node) >= s.plat.NNodes() {
		return fmt.Errorf("memsys: stream %d targets node %d out of range", st.ID, st.Node)
	}
	// A NaN demand would poison every rate on its node, and +Inf would
	// turn the proportional split into Inf/Inf.
	if !(st.Demand >= 0) || math.IsInf(st.Demand, 1) {
		return fmt.Errorf("memsys: stream %d has demand %v, want a finite value >= 0", st.ID, st.Demand)
	}
	switch st.Kind {
	case KindCompute:
		if int(st.Core) < 0 || int(st.Core) >= s.plat.NCores() {
			return fmt.Errorf("memsys: compute stream %d issued by core %d out of range", st.ID, st.Core)
		}
	case KindComm:
	default:
		return fmt.Errorf("memsys: stream %d has unknown kind %d", st.ID, int(st.Kind))
	}
	return nil
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

// blendEnv evaluates the class-appropriate envelope for a group: the local
// curve when every compute accessor sits on the node's socket, the remote
// curve when every one crosses the link, and a count-weighted blend for
// the mixed case the paper leaves to future work.
type blendEnv struct {
	local, remote   *envTable
	nLocal, nRemote int
}

func (b blendEnv) at(n int) float64 {
	switch {
	case b.nRemote == 0:
		return b.local.eval(n)
	case b.nLocal == 0:
		return b.remote.eval(n)
	default:
		l, r := float64(b.nLocal), float64(b.nRemote)
		return (l*b.local.eval(n) + r*b.remote.eval(n)) / (l + r)
	}
}

// commReserve computes the bandwidth share the memory system reserves for
// NIC streams when n computing cores with per-core demand perCore compete
// against a comm demand commDemand under the mix envelope env:
//
//   - below the saturation onset the NIC keeps its full demand;
//   - past the onset each additional core shaves CommDecayPerCore — the
//     hardware degrades communications gradually (Figure 2's shrinking
//     blue band), which is exactly why the paper's equation (5)
//     interpolates α(n) instead of stepping to α;
//   - the EarlyCommStart quirk (henri) adds a gentler pre-onset decay of
//     EarlyCommRate per core for local-class computations;
//   - the reserve never drops below the guaranteed floor
//     CommFloorFrac·commDemand (§II-A: no starvation).
func (s *System) commReserve(env blendEnv, n int, perCore, commDemand float64, localClass bool) float64 {
	if commDemand <= 0 {
		return 0
	}
	floor := s.prof.CommFloorFrac * commDemand
	reserve := commDemand
	decay := s.prof.CommDecayPerCore
	if decay > 0 && n > 0 && perCore > 0 {
		// Saturation onset: first core count whose aggregate demand
		// plus the comm demand exceeds the capacity envelope.
		onset := n + 1
		for k := 1; k <= n; k++ {
			if float64(k)*perCore+commDemand > env.at(k) {
				onset = k
				break
			}
		}
		q := s.prof.Quirks
		// The early-throttling quirk is queuing pressure from cores
		// streaming at full tilt; lightly-demanding cores (e.g. cache-
		// resident kernels) do not trigger it.
		hardStreaming := perCore >= 0.8*s.prof.PerCoreLocal
		if q.EarlyCommStart > 0 && localClass && hardStreaming && q.EarlyCommStart < onset {
			pre := math.Min(float64(n), float64(onset-1)) - float64(q.EarlyCommStart) + 1
			if pre > 0 {
				reserve -= q.EarlyCommRate * pre
			}
		}
		if n >= onset {
			reserve -= decay * float64(n-onset+1)
		}
	}
	if reserve < floor {
		reserve = floor
	}
	if reserve > commDemand {
		reserve = commDemand
	}
	return reserve
}

// solveNode arbitrates the streams one memory controller serves: two
// walks over the ID-sorted slots, one to sum the demands and one to grant
// the rates. Each grant splits the kind's aggregate among its streams in
// proportion to their demands, never above any stream's demand (with
// equal demands an even split; the split leaves slack only when the
// aggregate exceeds the total demand, and then every stream gets its full
// demand).
func (s *System) solveNode(streams []Stream, o []slot, node topology.NodeID) {
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

// splitScale is the factor that splits an aggregate grant agg among
// streams whose demands sum to total: proportional, capped at 1, and 0
// when the streams demand nothing.
func splitScale(agg, total float64) float64 {
	if total <= 0 {
		return 0
	}
	scale := agg / total
	if scale > 1 {
		scale = 1
	}
	return scale
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
func (s *System) applyMeshPressure(streams []Stream, o []slot) {
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
func (s *System) applyLinkCap(streams []Stream, o []slot) {
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

// crossesLink reports whether a stream's data path traverses the
// inter-socket interconnect.
func (s *System) crossesLink(st Stream) bool {
	switch st.Kind {
	case KindCompute:
		return s.plat.CrossesLink(s.plat.Cores[st.Core].Socket, st.Node)
	case KindComm:
		return s.plat.CrossesLink(s.plat.NIC.Socket, st.Node)
	default:
		return false
	}
}

// Links names the shared resources a stream's data path occupies, in
// traversal order from the issuer to the memory: "pcie" (NIC DMA
// streams, bounded by applyPCIeCap), "xlink" (the inter-socket link,
// bounded by applyLinkCap) and "node<N>" (the memory controller of the
// data's NUMA node). Profilers use it to attribute bandwidth shares per
// contended resource.
func (s *System) Links(st Stream) []string {
	links := make([]string, 0, 3)
	if st.Kind == KindComm {
		links = append(links, "pcie")
	}
	if s.crossesLink(st) {
		links = append(links, "xlink")
	}
	return append(links, fmt.Sprintf("node%d", st.Node))
}

// applyPCIeCap bounds the sum of NIC DMA streams by the PCIe capacity.
func (s *System) applyPCIeCap(streams []Stream, o []slot) {
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
