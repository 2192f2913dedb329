package mpi

import (
	"fmt"

	"memcontention/internal/topology"
	"memcontention/internal/units"
)

// Collective operations. All ranks of the world must call the same
// collective with compatible arguments (as in MPI); mismatched calls
// deadlock, which the engine reports when the simulation drains.
//
// Algorithms are the classic binomial trees used by MPI implementations
// for medium-size messages, so simulated collective times scale as
// O(log P) fabric hops — good enough to study contention, which is a
// per-node memory-system effect.

// collectiveTagBase separates internal collective traffic from user tags.
const collectiveTagBase = 1 << 20

// binomialBcast runs the binomial broadcast over a group of size members
// (local index me, root in group numbering); the closures perform the
// actual transfers against group-local peer indices. Returns the payload
// every member ends up holding.
func binomialBcast(size, me, root int, payload any,
	recvParent func(parent int) (any, error),
	sendChild func(child int, payload any) error) (any, error) {
	// Virtual rank: rotate so the root is 0 in the tree.
	vrank := (me - root + size) % size
	if vrank != 0 {
		// Receive from the parent: clear the lowest set bit.
		parent := ((vrank & (vrank - 1)) + root) % size
		p, err := recvParent(parent)
		if err != nil {
			return nil, err
		}
		payload = p
	}
	// Forward to children: vrank+bit for every power of two below my
	// lowest set bit (all of them for the root), largest subtree first.
	bit := 1
	if vrank == 0 {
		for bit<<1 < size {
			bit <<= 1
		}
	} else {
		bit = (vrank & -vrank) >> 1
	}
	for ; bit > 0; bit >>= 1 {
		if vrank+bit >= size {
			continue
		}
		child := (vrank + bit + root) % size
		if err := sendChild(child, payload); err != nil {
			return nil, err
		}
	}
	return payload, nil
}

// binomialReduce runs the binomial reduction mirror image: members receive
// from their children, fold with op, and forward to their parent; the root
// returns the full reduction (others return 0).
func binomialReduce(size, me, root int, value float64, op func(a, b float64) float64,
	recvChild func(child int) (float64, error),
	sendParent func(parent int, acc float64) error) (float64, error) {
	vrank := (me - root + size) % size
	acc := value
	for bit := 1; bit < size; bit <<= 1 {
		if vrank&bit != 0 {
			parent := ((vrank &^ bit) + root) % size
			return 0, sendParent(parent, acc)
		}
		if vrank+bit < size {
			child := (vrank + bit + root) % size
			v, err := recvChild(child)
			if err != nil {
				return 0, err
			}
			acc = op(acc, v)
		}
	}
	return acc, nil
}

// Bcast broadcasts size bytes from root to all ranks. Data lands on (and
// is sent from) the given NUMA node of each rank's machine. The root's
// payload value is returned on every rank. Sends are posted non-blocking
// so subtrees progress in parallel; the rank keeps their requests in
// storage it reuses.
func (c *Ctx) Bcast(root int, size units.ByteSize, node topology.NodeID, payload any) (any, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	tag := collectiveTagBase + 1
	reqs := c.rank.sends[:0]
	defer func() {
		clear(reqs)
		c.rank.sends = reqs[:0]
	}()
	out, err := binomialBcast(c.world.Size(), c.Rank(), root, payload,
		func(parent int) (any, error) {
			st, err := c.Recv(parent, tag, size, node)
			if err != nil {
				return nil, err
			}
			return st.Payload, nil
		},
		func(child int, p any) error {
			req, err := c.Isend(child, tag, size, node, p)
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("mpi: Bcast rank %d: %w", c.Rank(), err)
	}
	if err := c.WaitAll(reqs...); err != nil {
		return nil, fmt.Errorf("mpi: Bcast rank %d: %w", c.Rank(), err)
	}
	return out, nil
}

// Reduce combines float64 payloads with op onto the root, moving size
// bytes per hop (the data being reduced). Non-root ranks return 0.
func (c *Ctx) Reduce(root int, size units.ByteSize, node topology.NodeID, value float64, op func(a, b float64) float64) (float64, error) {
	if err := c.checkRoot(root); err != nil {
		return 0, err
	}
	if op == nil {
		return 0, fmt.Errorf("mpi: Reduce needs an operator")
	}
	tag := collectiveTagBase + 2
	out, err := binomialReduce(c.world.Size(), c.Rank(), root, value, op,
		func(child int) (float64, error) {
			st, err := c.Recv(child, tag, size, node)
			if err != nil {
				return 0, err
			}
			v, ok := st.Payload.(float64)
			if !ok {
				return 0, fmt.Errorf("non-float payload from %d", st.Source)
			}
			return v, nil
		},
		func(parent int, acc float64) error {
			return c.Send(parent, tag, size, node, acc)
		})
	if err != nil {
		return 0, fmt.Errorf("mpi: Reduce rank %d: %w", c.Rank(), err)
	}
	return out, nil
}

// Allreduce is Reduce to rank 0 followed by Bcast.
func (c *Ctx) Allreduce(size units.ByteSize, node topology.NodeID, value float64, op func(a, b float64) float64) (float64, error) {
	acc, err := c.Reduce(0, size, node, value, op)
	if err != nil {
		return 0, err
	}
	out, err := c.Bcast(0, size, node, acc)
	if err != nil {
		return 0, err
	}
	v, ok := out.(float64)
	if !ok {
		return 0, fmt.Errorf("mpi: Allreduce rank %d: broadcast payload corrupted", c.Rank())
	}
	return v, nil
}

// Gather collects every rank's payload at the root, each contribution
// moving size bytes. The root receives a slice indexed by rank; other
// ranks get nil.
func (c *Ctx) Gather(root int, size units.ByteSize, node topology.NodeID, payload any) ([]any, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	w := c.world
	tag := collectiveTagBase + 3
	if c.Rank() != root {
		if err := c.Send(root, tag, size, node, rankedPayload{c.Rank(), payload}); err != nil {
			return nil, fmt.Errorf("mpi: Gather rank %d: %w", c.Rank(), err)
		}
		return nil, nil
	}
	out := make([]any, w.Size())
	out[root] = payload
	for i := 0; i < w.Size()-1; i++ {
		st, err := c.Recv(AnySource, tag, size, node)
		if err != nil {
			return nil, fmt.Errorf("mpi: Gather root: %w", err)
		}
		rp, ok := st.Payload.(rankedPayload)
		if !ok {
			return nil, fmt.Errorf("mpi: Gather root: stray message from %d", st.Source)
		}
		out[rp.rank] = rp.value
	}
	return out, nil
}

// Scatter distributes per-rank payloads from the root; every rank gets
// its element. parts must have world-size length on the root (ignored
// elsewhere).
func (c *Ctx) Scatter(root int, size units.ByteSize, node topology.NodeID, parts []any) (any, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	w := c.world
	tag := collectiveTagBase + 4
	if c.Rank() == root {
		if len(parts) != w.Size() {
			return nil, fmt.Errorf("mpi: Scatter root: %d parts for %d ranks", len(parts), w.Size())
		}
		for r := 0; r < w.Size(); r++ {
			if r == root {
				continue
			}
			if err := c.Send(r, tag, size, node, parts[r]); err != nil {
				return nil, fmt.Errorf("mpi: Scatter root: %w", err)
			}
		}
		return parts[root], nil
	}
	st, err := c.Recv(root, tag, size, node)
	if err != nil {
		return nil, fmt.Errorf("mpi: Scatter rank %d: %w", c.Rank(), err)
	}
	return st.Payload, nil
}

// Sendrecv performs a simultaneous send and receive (the deadlock-free
// exchange primitive of halo swaps).
func (c *Ctx) Sendrecv(dst, sendTag int, sendSize units.ByteSize, sendNode topology.NodeID, payload any,
	src, recvTag int, recvSize units.ByteSize, recvNode topology.NodeID) (Status, error) {
	recvReq, err := c.Irecv(src, recvTag, recvSize, recvNode)
	if err != nil {
		return Status{}, err
	}
	sendReq, err := c.Isend(dst, sendTag, sendSize, sendNode, payload)
	if err != nil {
		return Status{}, err
	}
	if _, err := c.Wait(sendReq); err != nil {
		return Status{}, err
	}
	return c.Wait(recvReq)
}

// rankedPayload tags a Gather contribution with its origin.
type rankedPayload struct {
	rank  int
	value any
}

func (c *Ctx) checkRoot(root int) error {
	if root < 0 || root >= c.world.Size() {
		return fmt.Errorf("mpi: rank %d: invalid root %d", c.Rank(), root)
	}
	return nil
}

// Sum is the canonical Reduce/Allreduce operator.
func Sum(a, b float64) float64 { return a + b }

// Max is a Reduce/Allreduce operator.
func Max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
