package memsys

import (
	"fmt"
	"math"
	"sort"

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

// Allocation is the solver's result: the bandwidth granted to each stream.
type Allocation struct {
	// Rates maps stream ID to granted bandwidth (GB/s).
	Rates map[int]float64
	// ComputeTotal and CommTotal aggregate the granted bandwidth per
	// kind; Total is their sum.
	ComputeTotal float64
	CommTotal    float64
	Total        float64
}

// Rate returns the granted bandwidth of a stream (0 for unknown IDs).
func (a *Allocation) Rate(id int) float64 { return a.Rates[id] }

// System is a memory-system instance: a platform structure plus its
// hardware behaviour profile.
type System struct {
	plat *topology.Platform
	prof *Profile
}

// New builds a memory system, validating profile against platform.
func New(plat *topology.Platform, prof *Profile) (*System, error) {
	if err := plat.Validate(); err != nil {
		return nil, fmt.Errorf("memsys: invalid platform: %w", err)
	}
	if err := prof.Validate(plat); err != nil {
		return nil, fmt.Errorf("memsys: invalid profile for %s: %w", plat.Name, err)
	}
	return &System{plat: plat, prof: prof}, nil
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

// nodeGroup collects the streams hitting one memory controller.
type nodeGroup struct {
	node    topology.NodeID
	compute []int // indices into the Solve stream slice
	comm    []int
	nLocal  int // compute accessors on the node's socket
	nRemote int // compute accessors crossing the link
}

// Solve assigns a bandwidth to every stream according to the arbitration
// policy described in the package comment. It is deterministic: the result
// depends only on the stream set (IDs included), never on slice order.
func (s *System) Solve(streams []Stream) (*Allocation, error) {
	if err := s.checkStreams(streams); err != nil {
		return nil, err
	}
	// Work on an ID-sorted copy so the solve is order-independent.
	ordered := append([]Stream(nil), streams...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })

	rates := make(map[int]float64, len(ordered))
	groups := s.groupByNode(ordered)

	for _, g := range groups {
		s.solveNode(ordered, g, rates)
	}
	s.applyMeshPressure(ordered, rates)
	s.applyLinkCap(ordered, rates)
	s.applyPCIeCap(ordered, rates)

	alloc := &Allocation{Rates: rates}
	for _, st := range ordered {
		r := rates[st.ID]
		alloc.Total += r
		if st.Kind == KindCompute {
			alloc.ComputeTotal += r
		} else {
			alloc.CommTotal += r
		}
	}
	return alloc, nil
}

func (s *System) checkStreams(streams []Stream) error {
	seen := make(map[int]bool, len(streams))
	for _, st := range streams {
		if seen[st.ID] {
			return fmt.Errorf("memsys: duplicate stream id %d", st.ID)
		}
		seen[st.ID] = true
		if int(st.Node) < 0 || int(st.Node) >= s.plat.NNodes() {
			return fmt.Errorf("memsys: stream %d targets node %d out of range", st.ID, st.Node)
		}
		// A NaN demand would poison every rate on its node, and +Inf
		// would turn the proportional split into Inf/Inf.
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
	}
	return nil
}

func (s *System) groupByNode(ordered []Stream) []*nodeGroup {
	byNode := make(map[topology.NodeID]*nodeGroup)
	for i, st := range ordered {
		g := byNode[st.Node]
		if g == nil {
			g = &nodeGroup{node: st.Node}
			byNode[st.Node] = g
		}
		if st.Kind == KindCompute {
			g.compute = append(g.compute, i)
			if s.plat.CrossesLink(s.plat.Cores[st.Core].Socket, st.Node) {
				g.nRemote++
			} else {
				g.nLocal++
			}
		} else {
			g.comm = append(g.comm, i)
		}
	}
	groups := make([]*nodeGroup, 0, len(byNode))
	for _, g := range byNode {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].node < groups[j].node })
	return groups
}

// commFactor reports the quirk factor applied to a comm stream's demand:
// on platforms whose network is sensitive to the computation side (pyxis),
// the NIC slows down when every concurrent computation works on the other
// socket.
func (s *System) commFactor(ordered []Stream, commNode topology.NodeID) float64 {
	f := s.prof.Quirks.CrossSocketCommFactor
	if f == 0 || f == 1 {
		return 1
	}
	commSocket, err := s.plat.SocketOfNode(commNode)
	if err != nil {
		return 1
	}
	sawCompute, allOtherSocket := false, true
	for _, st := range ordered {
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
	local, remote   Envelope
	nLocal, nRemote int
}

func pickEnv(local, remote Envelope, g *nodeGroup) blendEnv {
	return blendEnv{local: local, remote: remote, nLocal: g.nLocal, nRemote: g.nRemote}
}

func (b blendEnv) at(n float64) float64 {
	switch {
	case b.nRemote == 0:
		return b.local.At(n)
	case b.nLocal == 0:
		return b.remote.At(n)
	default:
		l, r := float64(b.nLocal), float64(b.nRemote)
		return (l*b.local.At(n) + r*b.remote.At(n)) / (l + r)
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
			if float64(k)*perCore+commDemand > env.at(float64(k)) {
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

func (s *System) solveNode(ordered []Stream, g *nodeGroup, rates map[int]float64) {
	q := s.prof.Quirks
	n := g.nLocal + g.nRemote

	// Aggregate compute demand against this controller.
	var compDemand float64
	for _, i := range g.compute {
		d := ordered[i].Demand
		if d == 0 {
			d = s.ComputeDemand(ordered[i].Core, g.node)
		}
		compDemand += d
	}
	capCore := pickEnv(s.prof.Caps.CoreLocal, s.prof.Caps.CoreRemote, g).at(float64(n))
	compAgg := softmin(compDemand, capCore, q.SoftSaturationGB)

	// Aggregate comm demand (nominal rate, locality- and quirk-adjusted).
	var commDemand float64
	for _, i := range g.comm {
		d := ordered[i].Demand
		if d == 0 {
			d = s.CommDemand(g.node)
		}
		commDemand += d * s.commFactor(ordered, g.node)
	}

	commAgg := 0.0
	if len(g.comm) > 0 {
		mixEnv := pickEnv(s.prof.Caps.MixLocal, s.prof.Caps.MixRemote, g)
		capMix := mixEnv.at(float64(n))
		perCore := 0.0
		if n > 0 {
			perCore = compDemand / float64(n)
		}
		// The NIC's share: its nominal demand, gradually decayed once
		// the system is past the saturation onset, never below the
		// guaranteed floor, and physically bounded by the controller.
		commAgg = math.Min(s.commReserve(mixEnv, n, perCore, commDemand, g.nRemote == 0), capMix)
		// The cores get what the controller has left.
		compAgg = math.Min(compAgg, math.Max(0, capMix-commAgg))
	}

	distribute(ordered, g.compute, compAgg, rates, func(st Stream) float64 {
		if st.Demand != 0 {
			return st.Demand
		}
		return s.ComputeDemand(st.Core, g.node)
	})
	distribute(ordered, g.comm, commAgg, rates, func(st Stream) float64 {
		d := st.Demand
		if d == 0 {
			d = s.CommDemand(g.node)
		}
		return d * s.commFactor(ordered, g.node)
	})
}

// distribute splits an aggregate grant among streams proportionally to
// their demands, never exceeding any stream's demand. (With equal demands
// this is an even split; with unequal demands the proportional split can
// leave slack only when the aggregate exceeds total demand, in which case
// every stream is granted its full demand.)
func distribute(ordered []Stream, idx []int, agg float64, rates map[int]float64, demand func(Stream) float64) {
	if len(idx) == 0 {
		return
	}
	total := 0.0
	for _, i := range idx {
		total += demand(ordered[i])
	}
	if total <= 0 {
		for _, i := range idx {
			rates[ordered[i].ID] = 0
		}
		return
	}
	scale := agg / total
	if scale > 1 {
		scale = 1
	}
	for _, i := range idx {
		rates[ordered[i].ID] = demand(ordered[i]) * scale
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
func (s *System) applyMeshPressure(ordered []Stream, rates map[int]float64) {
	computeNodes := make(map[topology.NodeID]bool)
	// Mesh occupancy is driven by the requests the cores *issue*, not
	// by the bandwidth they are granted: a core streaming to a remote
	// node is latency-bound and holds as many mesh slots as a local
	// stream would, so its occupancy is counted at its local-equivalent
	// demand.
	occDemand := 0.0
	nCompute := 0
	allLocalClass := true
	for _, st := range ordered {
		if st.Kind != KindCompute {
			continue
		}
		computeNodes[st.Node] = true
		d := st.Demand
		if d == 0 {
			d = s.ComputeDemand(st.Core, st.Node)
		}
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
	var cross []int
	curSum, floorSum := 0.0, 0.0
	for i, st := range ordered {
		if st.Kind != KindComm || computeNodes[st.Node] {
			continue
		}
		cross = append(cross, i)
		curSum += rates[st.ID]
		d := st.Demand
		if d == 0 {
			d = s.CommDemand(st.Node)
		}
		floorSum += s.prof.CommFloorFrac * d * s.commFactor(ordered, st.Node)
	}
	if len(cross) == 0 || curSum <= 0 {
		return
	}
	n := float64(nCompute)
	occupancy := math.Min(occDemand, s.prof.Caps.CoreLocal.At(n))
	capacityLeft := s.prof.Caps.MixLocal.At(n) - occupancy
	env := blendEnv{local: s.prof.Caps.MixLocal, nLocal: 1}
	reserve := s.commReserve(env, nCompute, occDemand/n, curSum, allLocalClass)
	target := math.Min(curSum, math.Min(capacityLeft, reserve))
	target = math.Max(target, floorSum)
	if target >= curSum {
		return
	}
	if target < 0 {
		target = 0
	}
	scale := target / curSum
	for _, i := range cross {
		rates[ordered[i].ID] *= scale
	}
}

// applyLinkCap enforces the inter-socket link capacity: every stream whose
// path crosses sockets shares LinkCap; excess is removed proportionally.
func (s *System) applyLinkCap(ordered []Stream, rates map[int]float64) {
	var crossing []int
	totalCross := 0.0
	for i, st := range ordered {
		if s.crossesLink(st) {
			crossing = append(crossing, i)
			totalCross += rates[st.ID]
		}
	}
	if totalCross <= s.prof.LinkCap || totalCross == 0 {
		return
	}
	scale := s.prof.LinkCap / totalCross
	for _, i := range crossing {
		rates[ordered[i].ID] *= scale
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
func (s *System) applyPCIeCap(ordered []Stream, rates map[int]float64) {
	var comm []int
	total := 0.0
	for i, st := range ordered {
		if st.Kind == KindComm {
			comm = append(comm, i)
			total += rates[st.ID]
		}
	}
	if total <= s.prof.PCIeCap || total == 0 {
		return
	}
	scale := s.prof.PCIeCap / total
	for _, i := range comm {
		rates[ordered[i].ID] *= scale
	}
}
