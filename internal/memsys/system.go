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

// Platform returns the underlying platform. It may be a built-in
// platform that topology.ByName shares with every caller, so it must not
// be modified.
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

// smallStreams bounds the sets solved in a smaller stack buffer, so a
// few-stream solve does not zero stackStreams slots it never uses.
const smallStreams = 32

// stackNodes is the largest NUMA node count whose per-controller
// aggregates SolveInto keeps on the stack.
const stackNodes = 8

// slot is one stream's place in the ascending-ID order SolveInto works in.
type slot struct {
	d     float64 // demand (GB/s), before the cross-socket comm factor
	rate  float64 // granted bandwidth (GB/s)
	i     int32   // index into the caller's stream slice
	flags uint8   // slotComm, slotCross, slotMesh
}

// Slot flags.
const (
	slotComm  uint8 = 1 << iota // NIC DMA stream
	slotCross                   // data path crosses the inter-socket link
	slotMesh                    // comm stream on a node no compute stream targets
)

// controller aggregates the streams one memory controller (NUMA node)
// serves.
type controller struct {
	cf                     float64 // cross-socket factor of comm demand on the node
	compDemand, commDemand float64 // demand sums, comm demand times cf
	compScale, commScale   float64 // share of its demand each kind is granted
	nLocal, nRemote, nComm int32
	comp                   bool // a compute stream targets the node
}

// SolveInto is the solver core Solve wraps, without the Rates map: it
// writes the rate granted to streams[i] to rates[i], in input order, and
// returns the per-kind totals. rates must hold len(streams) elements, or
// be nil when only the totals are wanted.
//
// It makes the fixed sequence of passes the package comment lists over
// one slot per stream in ascending-ID order. A set whose IDs already
// ascend, as engine.Flows and bench.Runner pass theirs, is taken in
// input order; any other order is sorted by ID first. Sets of up to
// stackStreams (128) streams on platforms of up to stackNodes (8) NUMA
// nodes are solved in stack scratch sized to the set and cost no
// allocation; a larger set spills one scratch slice to the heap. System
// holds no mutable state, so SolveInto is safe for concurrent use.
func (s *System) SolveInto(streams []Stream, rates []float64) (Totals, error) {
	if rates != nil && len(rates) != len(streams) {
		return Totals{}, fmt.Errorf("memsys: %d rates for %d streams", len(rates), len(streams))
	}
	switch n := len(streams); {
	case n <= smallStreams:
		var buf [smallStreams]slot
		return s.solve(streams, rates, buf[:n])
	case n <= stackStreams:
		var buf [stackStreams]slot
		return s.solve(streams, rates, buf[:n])
	default:
		return s.solve(streams, rates, make([]slot, n))
	}
}

// solve is SolveInto over o, a zeroed slot per stream.
func (s *System) solve(streams []Stream, rates []float64, o []slot) (Totals, error) {
	nn := s.plat.NNodes()
	var buf [stackNodes]controller
	ctl := buf[:min(nn, stackNodes)]
	if nn > stackNodes {
		ctl = make([]controller, nn)
	}

	// Validation, in input order, before anything is solved. It also
	// notes whether the IDs ascend and which nodes hold compute data.
	ascending := true
	for i := range streams {
		st := &streams[i]
		if err := s.checkStream(st); err != nil {
			return Totals{}, err
		}
		if i > 0 && st.ID <= streams[i-1].ID {
			ascending = false
		}
		if st.Kind == KindCompute {
			ctl[st.Node].comp = true
		}
		o[i].i = int32(i)
	}
	if !ascending {
		slices.SortFunc(o, func(a, b slot) int { return cmp.Compare(streams[a.i].ID, streams[b.i].ID) })
		for k := 1; k < len(o); k++ {
			if id := streams[o[k].i].ID; id == streams[o[k-1].i].ID {
				return Totals{}, fmt.Errorf("memsys: duplicate stream id %d", id)
			}
		}
	}
	s.commFactors(ctl)

	// Classification: each slot takes its stream's demand (a zero Demand
	// means the core's kernel rate against its node, or the NIC's nominal
	// rate for its node), kind and link crossing; each controller sums
	// its compute and comm demand and counts its local, remote and comm
	// streams. Mesh occupancy is driven by the requests the cores
	// *issue*, not by the bandwidth they are granted: a core streaming to
	// a remote node is latency-bound and holds as many mesh slots as a
	// local stream would, so its occupancy counts its local-equivalent
	// demand.
	plat, prof := s.plat, s.prof
	remoteOcc := prof.PerCoreLocal / prof.PerCoreRemote
	occDemand, nCompute, allLocalClass := 0.0, 0, true
	for k := range o {
		sl := &o[k]
		st := &streams[sl.i]
		c := &ctl[st.Node]
		sock := plat.Nodes[st.Node].Socket
		sl.d = st.Demand
		if st.Kind == KindCompute {
			if sl.d == 0 {
				sl.d = s.ComputeDemand(st.Core, st.Node)
			}
			cross := plat.Cores[st.Core].Socket != sock
			c.compDemand += sl.d
			occ := sl.d
			if cross {
				sl.flags = slotCross
				c.nRemote++
				occ *= remoteOcc
				allLocalClass = false
			} else {
				c.nLocal++
			}
			occDemand += occ
			nCompute++
		} else {
			if sl.d == 0 {
				sl.d = s.CommDemand(st.Node)
			}
			sl.flags = slotComm
			if plat.NIC.Socket != sock {
				sl.flags |= slotCross
			}
			c.commDemand += sl.d * c.cf
			c.nComm++
		}
	}

	for n := range ctl {
		if c := &ctl[n]; c.nLocal+c.nRemote+c.nComm > 0 {
			s.arbitrate(c)
		}
	}

	// Rates: each stream's share of its controller's grant to its kind.
	// A comm stream on a node no compute stream targets is a mesh stream,
	// summed for mesh pressure.
	meshSum, meshFloor := 0.0, 0.0
	for k := range o {
		sl := &o[k]
		c := &ctl[streams[sl.i].Node]
		if sl.flags&slotComm == 0 {
			sl.rate = sl.d * c.compScale
			continue
		}
		sl.rate = sl.d * c.cf * c.commScale
		if !c.comp {
			sl.flags |= slotMesh
			meshSum += sl.rate
			meshFloor += prof.CommFloorFrac * sl.d * c.cf
		}
	}

	// Mesh pressure on the mesh streams, then the link sum.
	meshScale := s.meshScale(nCompute, occDemand, allLocalClass, meshSum, meshFloor)
	linkSum := 0.0
	for k := range o {
		sl := &o[k]
		if sl.flags&slotMesh != 0 {
			sl.rate *= meshScale
		}
		if sl.flags&slotCross != 0 {
			linkSum += sl.rate
		}
	}

	// The inter-socket link cap: every stream whose path crosses sockets
	// shares LinkCap, and the excess is removed proportionally. Then the
	// PCIe sum.
	linkScale := capScale(linkSum, prof.LinkCap)
	pcieSum := 0.0
	for k := range o {
		sl := &o[k]
		if sl.flags&slotCross != 0 {
			sl.rate *= linkScale
		}
		if sl.flags&slotComm != 0 {
			pcieSum += sl.rate
		}
	}

	// The PCIe cap on the NIC's DMA streams, then the totals.
	pcieScale := capScale(pcieSum, prof.PCIeCap)
	var t Totals
	for k := range o {
		sl := &o[k]
		if sl.flags&slotComm != 0 {
			sl.rate *= pcieScale
			t.CommTotal += sl.rate
		} else {
			t.ComputeTotal += sl.rate
		}
		t.Total += sl.rate
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

// commFactors sets each controller's comm factor. On platforms whose
// network is sensitive to the computation side (pyxis), the NIC slows
// down when every concurrent computation works on the other socket: comm
// demand on a node is scaled by Quirks.CrossSocketCommFactor when some
// compute stream runs and none targets a node of that node's socket.
func (s *System) commFactors(ctl []controller) {
	for n := range ctl {
		ctl[n].cf = 1
	}
	f := s.prof.Quirks.CrossSocketCommFactor
	if f == 0 || f == 1 {
		return
	}
	nodes := s.plat.Nodes
	for n := range ctl {
		sawCompute, allOtherSocket := false, true
		for m := range ctl {
			if ctl[m].comp {
				sawCompute = true
				if nodes[m].Socket == nodes[n].Socket {
					allOtherSocket = false
				}
			}
		}
		if sawCompute && allOtherSocket {
			ctl[n].cf = f
		}
	}
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
			pre := min(float64(n), float64(onset-1)) - float64(q.EarlyCommStart) + 1
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

// arbitrate grants one memory controller's bandwidth from its aggregates:
// the cores' demand bounded by the compute envelope (softly on pyxis),
// the NIC its reserve, and the cores no more than the controller has
// left beside it. Each kind's grant is split among its streams in
// proportion to their demands, never above any stream's demand (with
// equal demands an even split; the split leaves slack only when the
// grant exceeds the total demand, and then every stream gets its full
// demand): arbitrate leaves the two split factors in c.
func (s *System) arbitrate(c *controller) {
	nLocal, nRemote := int(c.nLocal), int(c.nRemote)
	n := nLocal + nRemote
	capCore := blendEnv{&s.coreLocal, &s.coreRemote, nLocal, nRemote}.at(n)
	compAgg := softmin(c.compDemand, capCore, s.prof.Quirks.SoftSaturationGB)

	commAgg := 0.0
	if c.nComm > 0 {
		mixEnv := blendEnv{&s.mixLocal, &s.mixRemote, nLocal, nRemote}
		capMix := mixEnv.at(n)
		perCore := 0.0
		if n > 0 {
			perCore = c.compDemand / float64(n)
		}
		// The NIC's share: its nominal demand, gradually decayed once
		// the system is past the saturation onset, never below the
		// guaranteed floor, and physically bounded by the controller.
		commAgg = min(s.commReserve(mixEnv, n, perCore, c.commDemand, nRemote == 0), capMix)
		// The cores get what the controller has left.
		compAgg = min(compAgg, max(0, capMix-commAgg))
	}
	c.compScale, c.commScale = splitScale(compAgg, c.compDemand), splitScale(commAgg, c.commDemand)
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

// meshScale is the factor mesh pressure applies to the mesh streams, comm
// streams on nodes no compute stream targets, whose rates sum to meshSum
// and whose NIC floors sum to meshFloor, when nCompute compute streams
// issue occDemand of mesh occupancy (allLocalClass when none crosses the
// link).
//
// Mesh pressure models contention between NIC DMA and core traffic that
// do NOT share a memory controller. On real machines the two stream
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
func (s *System) meshScale(nCompute int, occDemand float64, allLocalClass bool, meshSum, meshFloor float64) float64 {
	if nCompute == 0 || meshSum <= 0 {
		return 1
	}
	occupancy := min(occDemand, s.coreLocal.eval(nCompute))
	capacityLeft := s.mixLocal.eval(nCompute) - occupancy
	env := blendEnv{local: &s.mixLocal, nLocal: 1}
	reserve := s.commReserve(env, nCompute, occDemand/float64(nCompute), meshSum, allLocalClass)
	target := min(meshSum, capacityLeft, reserve)
	target = max(target, meshFloor)
	if target >= meshSum {
		return 1
	}
	if target < 0 {
		target = 0
	}
	return target / meshSum
}

// capScale is the factor that brings streams whose rates sum to total
// within a shared capacity: the excess removed proportionally, or 1 when
// they fit.
func capScale(total, capacity float64) float64 {
	if total <= capacity || total == 0 {
		return 1
	}
	return capacity / total
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
// streams, bounded by the PCIe cap), "xlink" (the inter-socket link,
// bounded by the link cap) and "node<N>" (the memory controller of the
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
