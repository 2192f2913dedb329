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

// collectiveTagBase separates internal collective traffic from user tags:
// point-to-point tags lie below it, and collectives and communicators tag
// their messages from it up.
const collectiveTagBase = 1 << 20

// hopData is what a collective hop carries besides its bytes: Bcast's
// payload, or the float64 of a Reduce or Allreduce hop, which rides in
// Request.value so that it is not boxed into the payload.
type hopData struct {
	payload any
	value   float64
}

// take pops the last object of a free list, or allocates one when the
// list is empty.
func take[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	x := (*free)[n-1]
	*free = (*free)[:n-1]
	return x
}

// postHop posts a message of a collective or a communicator: its tag is
// not checked against the user tags, and its envelope comes from the
// world's free list. It returns the send request of a rendezvous, which
// the caller waits for. An eager hop's send completes when it is posted,
// so it is not waited on, and the world takes its envelope back once its
// receive has completed without error.
func (c *Ctx) postHop(dst, tag int, size units.ByteSize, node topology.NodeID, d hopData) (*Request, error) {
	req, err := c.isend(dst, tag, size, node, d.payload, d.value, true)
	if err != nil || size <= EagerLimit {
		return nil, err
	}
	return req, nil
}

// sendHop is the blocking postHop.
func (c *Ctx) sendHop(dst, tag int, size units.ByteSize, node topology.NodeID, d hopData) error {
	req, err := c.postHop(dst, tag, size, node, d)
	if err != nil || req == nil {
		return err
	}
	_, err = c.Wait(req)
	return err
}

// recvHop receives a message of a collective or a communicator into a
// request from the world's free list, and returns its status and the
// value a Reduce hop carries. The request goes back to the list once the
// message has arrived without error and has been read. A request that
// failed is never reused: the late message of a timed-out receive still
// completes it, which must stay a no-op.
func (c *Ctx) recvHop(src, tag int, size units.ByteSize, node topology.NodeID) (Status, float64, error) {
	req, err := c.irecv(src, tag, size, node, true)
	if err != nil {
		return Status{}, 0, err
	}
	st, err := c.Wait(req)
	if err != nil {
		return st, 0, err
	}
	v := req.value
	c.world.recvs = append(c.world.recvs, req)
	return st, v, nil
}

// binomialBcast runs the binomial broadcast over a group of size members
// (local index me, root in group numbering); the closures perform the
// actual transfers against group-local peer indices. Returns the data
// every member ends up holding.
func binomialBcast(size, me, root int, data hopData,
	recvParent func(parent int) (hopData, error),
	sendChild func(child int, data hopData) error) (hopData, error) {
	// Virtual rank: rotate so the root is 0 in the tree.
	vrank := (me - root + size) % size
	if vrank != 0 {
		// Receive from the parent: clear the lowest set bit.
		parent := ((vrank & (vrank - 1)) + root) % size
		d, err := recvParent(parent)
		if err != nil {
			return hopData{}, err
		}
		data = d
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
		if err := sendChild(child, data); err != nil {
			return hopData{}, err
		}
	}
	return data, nil
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
// payload value is returned on every rank.
func (c *Ctx) Bcast(root int, size units.ByteSize, node topology.NodeID, payload any) (any, error) {
	out, err := c.bcast(root, size, node, hopData{payload: payload})
	return out.payload, err
}

// bcast is Bcast of a hop's data, so that Allreduce broadcasts its
// float64 without boxing it. Sends are posted non-blocking so subtrees
// progress in parallel; the rank keeps the requests of rendezvous sends
// in storage it reuses, and waits for them before it returns.
func (c *Ctx) bcast(root int, size units.ByteSize, node topology.NodeID, data hopData) (hopData, error) {
	if err := c.checkRoot(root); err != nil {
		return hopData{}, err
	}
	tag := collectiveTagBase + 1
	reqs := c.rank.sends[:0]
	defer func() {
		clear(reqs)
		c.rank.sends = reqs[:0]
	}()
	out, err := binomialBcast(c.world.Size(), c.Rank(), root, data,
		func(parent int) (hopData, error) {
			st, v, err := c.recvHop(parent, tag, size, node)
			return hopData{payload: st.Payload, value: v}, err
		},
		func(child int, d hopData) error {
			req, err := c.postHop(child, tag, size, node, d)
			if req != nil {
				reqs = append(reqs, req)
			}
			return err
		})
	if err == nil {
		err = c.WaitAll(reqs...)
	}
	if err != nil {
		return hopData{}, fmt.Errorf("mpi: Bcast rank %d: %w", c.Rank(), err)
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
			_, v, err := c.recvHop(child, tag, size, node)
			return v, err
		},
		func(parent int, acc float64) error {
			return c.sendHop(parent, tag, size, node, hopData{value: acc})
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
	out, err := c.bcast(0, size, node, hopData{value: acc})
	return out.value, err
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
		if err := c.sendHop(root, tag, size, node, hopData{payload: rankedPayload{c.Rank(), payload}}); err != nil {
			return nil, fmt.Errorf("mpi: Gather rank %d: %w", c.Rank(), err)
		}
		return nil, nil
	}
	out := make([]any, w.Size())
	out[root] = payload
	for i := 0; i < w.Size()-1; i++ {
		st, _, err := c.recvHop(AnySource, tag, size, node)
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
			if err := c.sendHop(r, tag, size, node, hopData{payload: parts[r]}); err != nil {
				return nil, fmt.Errorf("mpi: Scatter root: %w", err)
			}
		}
		return parts[root], nil
	}
	st, _, err := c.recvHop(root, tag, size, node)
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
