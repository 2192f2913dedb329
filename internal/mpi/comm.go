package mpi

import (
	"fmt"
	"sort"

	"memcontention/internal/engine"
	"memcontention/internal/topology"
	"memcontention/internal/units"
)

// Comm is a communicator: an ordered subset of the world's ranks with its
// own rank numbering, tag space, barrier and collectives — MPI_Comm_split
// semantics. Communicators are created collectively with Ctx.Split.
type Comm struct {
	world *World
	// id namespaces the communicator's tags.
	id int
	// members maps comm-local rank -> world rank.
	members []int
	// myIdx is the calling rank's comm-local rank (set per Ctx view).
}

// View binds a communicator to one rank's context.
type CommView struct {
	comm  *Comm
	ctx   *Ctx
	myIdx int
}

// splitEntry is one rank's Split arguments.
type splitEntry struct {
	color, key int
}

// splitRound holds one collective Split call's coordination state. Rounds
// are sequenced: a new round object is created once the previous one
// completes, so late readers of round N never see round N+1's result.
type splitRound struct {
	entries map[int]splitEntry
	sig     *engine.Signal
	result  map[int]*Comm
}

// Split partitions the world: ranks passing the same color form a new
// communicator, ordered by (key, world rank). It is collective — every
// rank of the world must call it. A negative color returns nil (the rank
// opts out), like MPI_UNDEFINED.
func (c *Ctx) Split(color, key int) (*CommView, error) {
	w := c.world
	if w.splitRound == nil {
		w.splitRound = &splitRound{
			entries: make(map[int]splitEntry),
			sig:     w.sim.NewSignal(),
		}
	}
	round := w.splitRound
	if _, dup := round.entries[c.Rank()]; dup {
		return nil, fmt.Errorf("mpi: rank %d called Split twice in one round", c.Rank())
	}
	round.entries[c.Rank()] = splitEntry{color: color, key: key}

	if len(round.entries) < w.Size() {
		// Wait for the rest of the world.
		c.proc.SetWaitReason("Split")
		round.sig.Wait(c.proc)
	} else {
		// Last arriver computes the partition, closes the round, and
		// wakes everyone.
		round.result = computeSplit(w, round.entries)
		w.splitRound = nil
		round.sig.Fire()
	}
	comm := round.result[c.Rank()]
	if comm == nil {
		return nil, nil // color < 0: not a member of any group
	}
	for idx, wr := range comm.members {
		if wr == c.Rank() {
			return &CommView{comm: comm, ctx: c, myIdx: idx}, nil
		}
	}
	return nil, fmt.Errorf("mpi: rank %d missing from its own communicator", c.Rank())
}

// computeSplit builds the communicators for one Split round.
func computeSplit(w *World, entries map[int]splitEntry) map[int]*Comm {
	byColor := make(map[int][]int)
	for rank, e := range entries {
		if e.color < 0 {
			continue
		}
		byColor[e.color] = append(byColor[e.color], rank)
	}
	colors := make([]int, 0, len(byColor))
	for color := range byColor {
		colors = append(colors, color)
	}
	sort.Ints(colors)
	result := make(map[int]*Comm, len(entries))
	for _, color := range colors {
		ranks := byColor[color]
		sort.Slice(ranks, func(i, j int) bool {
			ei, ej := entries[ranks[i]], entries[ranks[j]]
			if ei.key != ej.key {
				return ei.key < ej.key
			}
			return ranks[i] < ranks[j]
		})
		w.commSeq++
		comm := &Comm{world: w, id: w.commSeq, members: ranks}
		for _, r := range ranks {
			result[r] = comm
		}
	}
	return result
}

// Rank reports the comm-local rank.
func (v *CommView) Rank() int { return v.myIdx }

// Size reports the communicator size.
func (v *CommView) Size() int { return len(v.comm.members) }

// WorldRank translates a comm-local rank to a world rank.
func (v *CommView) WorldRank(local int) (int, error) {
	if local < 0 || local >= len(v.comm.members) {
		return 0, fmt.Errorf("mpi: comm rank %d out of range [0,%d)", local, len(v.comm.members))
	}
	return v.comm.members[local], nil
}

// tag namespaces a user tag into the communicator's tag space.
func (v *CommView) tag(userTag int) int {
	// Communicator tags live above the collective range, striped by id.
	return collectiveTagBase<<4 + v.comm.id*(collectiveTagBase>>4) + userTag
}

// Send is a comm-scoped blocking send.
func (v *CommView) Send(dst, tag int, size units.ByteSize, node topology.NodeID, payload any) error {
	if tag < 0 {
		return fmt.Errorf("mpi: comm send with negative tag %d", tag)
	}
	wr, err := v.WorldRank(dst)
	if err != nil {
		return err
	}
	return v.ctx.Send(wr, v.tag(tag), size, node, payload)
}

// Recv is a comm-scoped blocking receive (src may be AnySource within the
// communicator; AnyTag is not supported in comm scope to keep tag spaces
// disjoint).
func (v *CommView) Recv(src, tag int, size units.ByteSize, node topology.NodeID) (Status, error) {
	if tag < 0 {
		return Status{}, fmt.Errorf("mpi: comm receive needs a concrete tag")
	}
	worldSrc := AnySource
	if src != AnySource {
		wr, err := v.WorldRank(src)
		if err != nil {
			return Status{}, err
		}
		worldSrc = wr
	}
	st, err := v.ctx.Recv(worldSrc, v.tag(tag), size, node)
	if err != nil {
		return st, err
	}
	// Translate the source back to comm-local numbering.
	for idx, wr := range v.comm.members {
		if wr == st.Source {
			st.Source = idx
			break
		}
	}
	st.Tag = tag
	return st, nil
}

// Barrier blocks until every member of the communicator has entered it.
func (v *CommView) Barrier() error {
	w := v.comm.world
	if w.commBarriers == nil {
		w.commBarriers = make(map[int]*commBarrier)
	}
	b := w.commBarriers[v.comm.id]
	if b == nil {
		b = &commBarrier{sig: w.sim.NewSignal()}
		w.commBarriers[v.comm.id] = b
	}
	b.count++
	if b.count == v.Size() {
		delete(w.commBarriers, v.comm.id)
		b.sig.Fire()
		return nil
	}
	v.ctx.proc.SetWaitReason("Comm.Barrier")
	b.sig.Wait(v.ctx.proc)
	return nil
}

type commBarrier struct {
	count int
	sig   *engine.Signal
}

// Bcast broadcasts within the communicator (binomial tree over comm-local
// ranks, root in comm numbering).
func (v *CommView) Bcast(root int, size units.ByteSize, node topology.NodeID, payload any) (any, error) {
	if root < 0 || root >= v.Size() {
		return nil, fmt.Errorf("mpi: comm Bcast invalid root %d", root)
	}
	return binomialBcast(v.Size(), v.Rank(), root, payload,
		func(parent int) (any, error) {
			st, err := v.Recv(parent, commBcastTag, size, node)
			if err != nil {
				return nil, err
			}
			return st.Payload, nil
		},
		func(child int, p any) error {
			return v.Send(child, commBcastTag, size, node, p)
		})
}

// Reduce combines float64 payloads onto the comm-local root.
func (v *CommView) Reduce(root int, size units.ByteSize, node topology.NodeID, value float64, op func(a, b float64) float64) (float64, error) {
	if root < 0 || root >= v.Size() {
		return 0, fmt.Errorf("mpi: comm Reduce invalid root %d", root)
	}
	if op == nil {
		return 0, fmt.Errorf("mpi: comm Reduce needs an operator")
	}
	return binomialReduce(v.Size(), v.Rank(), root, value, op,
		func(child int) (float64, error) {
			wr, err := v.WorldRank(child)
			if err != nil {
				return 0, err
			}
			return v.ctx.recvValue(wr, v.tag(commReduceTag), size, node)
		},
		func(parent int, acc float64) error {
			wr, err := v.WorldRank(parent)
			if err != nil {
				return err
			}
			return v.ctx.sendValue(wr, v.tag(commReduceTag), size, node, acc)
		})
}

// Comm-internal tags (within the communicator's namespaced space).
const (
	commBcastTag  = 1
	commReduceTag = 2
)
