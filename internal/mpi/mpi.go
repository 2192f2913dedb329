// Package mpi is a small message-passing interface over the simulated
// cluster, reproducing the programming model of the paper's benchmark
// (MadMPI / OpenMPI, §IV-A1): ranks with blocking and non-blocking
// point-to-point operations, tag matching with wildcards, barriers and a
// couple of collectives.
//
// Ranks are engine processes, so all of MPI runs under the deterministic
// cooperative scheduler: a program's outcome depends only on its logic and
// the simulated platform, never on goroutine interleaving.
package mpi

import (
	"errors"
	"fmt"

	"memcontention/internal/engine"
	"memcontention/internal/kernels"
	"memcontention/internal/memsys"
	"memcontention/internal/obs"
	"memcontention/internal/simnet"
	"memcontention/internal/topology"
	"memcontention/internal/units"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// EagerLimit is the message size under which sends complete immediately
// (buffered), as in real MPI implementations. Larger messages use a
// rendezvous: the sender blocks until the receiver has the data.
const EagerLimit = 32 * units.KiB

// World is an MPI job: a set of ranks spread over machines.
type World struct {
	sim    *engine.Sim
	fabric *simnet.Fabric
	ranks  []*rankState
	// res is the resilience policy (zero value: no timeouts/retries).
	res Resilience
	// spans, when set, records one causal span per rank, MPI operation,
	// barrier and compute phase. Nil costs one comparison per operation.
	spans obs.SpanRecorder
	// barrier bookkeeping
	barrierCount int
	barrierSig   *engine.Signal
	// communicator bookkeeping (Split rounds and per-comm barriers)
	splitRound   *splitRound
	commSeq      int
	commBarriers map[int]*commBarrier
}

// rankState is the communication state of one rank.
type rankState struct {
	id      int
	machine *simnet.Machine
	// span is the rank's root causal span (0 when spans are off).
	span obs.SpanID
	// posted holds receive requests waiting for a matching send;
	// unexpected holds send envelopes waiting for a matching receive.
	// Both are FIFO, as MPI matching requires.
	posted     []*Request
	unexpected []*envelope
	// streams and flows are Compute's scratch, reused by every compute
	// phase of the rank: the phase's streams and its flows' handles. A
	// phase returns only once all of its flows have completed.
	streams []memsys.Stream
	flows   []engine.Handle
}

// removePosted withdraws a receive request from the posted queue (used
// when the request times out). Missing requests are ignored.
func (rs *rankState) removePosted(req *Request) {
	for i, r := range rs.posted {
		if r == req {
			rs.posted = append(rs.posted[:i], rs.posted[i+1:]...)
			return
		}
	}
}

// envelope is a send seen from the receiving side.
type envelope struct {
	src, tag int
	size     units.ByteSize
	srcNode  topology.NodeID
	payload  any
	// sendReq completes when the data has been delivered (nil for
	// eager sends, which complete at post time).
	sendReq *Request
}

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Size   units.ByteSize
	// Payload is the optional value attached by the sender.
	Payload any
	// AvgRate is the observed transfer bandwidth (0 for eager/local).
	AvgRate units.Bandwidth
}

// Request is a non-blocking operation handle.
type Request struct {
	world    *World
	done     bool
	sig      engine.Signal
	status   Status
	err      error
	isRecv   bool
	src, tag int
	// peer is the other side: dst for sends, src for receives (may be
	// AnySource). Used for diagnostics only.
	peer    int
	dstNode topology.NodeID
	size    units.ByteSize
	// owner is the rank that posted the request (for receive-queue
	// removal on timeout).
	owner *rankState
	// span is the operation's causal span, ended at completion (0 when
	// spans are off).
	span obs.SpanID
}

// Test reports whether the request has completed.
func (r *Request) Test() bool { return r.done }

// complete marks the request done and wakes waiters. Completing an
// already-completed request (a transfer landing after its timeout fired)
// is a no-op: the first outcome wins.
func (r *Request) complete(st Status, err error) {
	if r.done {
		return
	}
	r.done = true
	r.status = st
	r.err = err
	if r.span != 0 && r.world.spans != nil {
		r.world.spans.EndSpan(r.span, r.world.sim.Now())
	}
	r.sig.Fire()
}

// NewWorld creates an MPI world over the fabric. ranksPerMachine ranks are
// created on each machine, rank ids counting machine-major.
func NewWorld(sim *engine.Sim, fabric *simnet.Fabric, machines []*simnet.Machine, ranksPerMachine int) (*World, error) {
	if ranksPerMachine <= 0 {
		return nil, fmt.Errorf("mpi: ranksPerMachine must be positive")
	}
	if len(machines) == 0 {
		return nil, fmt.Errorf("mpi: no machines")
	}
	w := &World{sim: sim, fabric: fabric}
	for _, m := range machines {
		for r := 0; r < ranksPerMachine; r++ {
			w.ranks = append(w.ranks, &rankState{id: len(w.ranks), machine: m})
		}
	}
	w.barrierSig = sim.NewSignal()
	return w, nil
}

// Size reports the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// SetSpanRecorder installs a causal span recorder on the world (nil
// removes it). Install it before Launch so every rank gets a root span.
func (w *World) SetSpanRecorder(sr obs.SpanRecorder) { w.spans = sr }

// beginOpSpan opens one operation span under the calling rank's root.
func (c *Ctx) beginOpSpan(name, cat string, node topology.NodeID) obs.SpanID {
	return c.world.spans.BeginSpan(c.rank.span, name, cat, c.world.sim.Now(), obs.SpanAttrs{
		Machine: c.rank.machine.ID,
		Rank:    c.rank.id,
		Node:    int(node),
	})
}

// Ctx is the per-rank handle passed to rank main functions.
type Ctx struct {
	world *World
	rank  *rankState
	proc  *engine.Proc
}

// Launch spawns every rank with the given main function. Call sim.Run()
// afterwards to execute the job.
func (w *World) Launch(main func(*Ctx)) {
	for _, rs := range w.ranks {
		rs := rs
		w.sim.Spawn(fmt.Sprintf("rank-%d", rs.id), func(p *engine.Proc) {
			if w.spans != nil {
				rs.span = w.spans.BeginSpan(0, fmt.Sprintf("rank %d", rs.id), "rank", w.sim.Now(), obs.SpanAttrs{
					Machine: rs.machine.ID,
					Rank:    rs.id,
					Node:    -1,
				})
			}
			main(&Ctx{world: w, rank: rs, proc: p})
			if w.spans != nil && rs.span != 0 {
				w.spans.EndSpan(rs.span, w.sim.Now())
			}
		})
	}
}

// Rank reports the calling rank's id.
func (c *Ctx) Rank() int { return c.rank.id }

// Size reports the world size.
func (c *Ctx) Size() int { return c.world.Size() }

// Machine returns the machine hosting this rank.
func (c *Ctx) Machine() *simnet.Machine { return c.rank.machine }

// Now reports the simulated time in seconds.
func (c *Ctx) Now() float64 { return c.world.sim.Now() }

// Sleep advances this rank by d simulated seconds.
func (c *Ctx) Sleep(d float64) { c.proc.Sleep(d) }

// Isend posts a non-blocking send of size bytes living on srcNode of the
// sender's machine. payload is an optional value handed to the receiver.
func (c *Ctx) Isend(dst, tag int, size units.ByteSize, srcNode topology.NodeID, payload any) (*Request, error) {
	if dst < 0 || dst >= c.world.Size() {
		return nil, fmt.Errorf("mpi: rank %d: Isend to invalid rank %d", c.Rank(), dst)
	}
	if tag < 0 {
		return nil, fmt.Errorf("mpi: rank %d: Isend with negative tag %d (wildcards are receive-only)", c.Rank(), tag)
	}
	if size <= 0 {
		return nil, fmt.Errorf("mpi: rank %d: Isend with non-positive size %d", c.Rank(), size)
	}
	if c.machineDown() {
		return nil, c.downError(fmt.Sprintf("Send(dst=%d, tag=%d)", dst, tag))
	}
	req := &Request{world: c.world, tag: tag, size: size, peer: dst}
	if c.world.spans != nil {
		req.span = c.beginOpSpan(fmt.Sprintf("send→%d", dst), "mpi", srcNode)
	}
	env := &envelope{src: c.Rank(), tag: tag, size: size, srcNode: srcNode, payload: payload}
	if size > EagerLimit {
		env.sendReq = req
	} else {
		// Eager: the send buffer is considered reusable immediately.
		req.complete(Status{Source: c.Rank(), Tag: tag, Size: size}, nil)
	}
	c.world.deliverEnvelope(c.world.ranks[dst], env)
	return req, nil
}

// Send is the blocking version of Isend.
func (c *Ctx) Send(dst, tag int, size units.ByteSize, srcNode topology.NodeID, payload any) error {
	req, err := c.Isend(dst, tag, size, srcNode, payload)
	if err != nil {
		return err
	}
	_, err = c.Wait(req)
	return err
}

// Irecv posts a non-blocking receive into dstNode of the receiver's
// machine. src may be AnySource and tag AnyTag.
func (c *Ctx) Irecv(src, tag int, size units.ByteSize, dstNode topology.NodeID) (*Request, error) {
	if src != AnySource && (src < 0 || src >= c.world.Size()) {
		return nil, fmt.Errorf("mpi: rank %d: Irecv from invalid rank %d", c.Rank(), src)
	}
	if c.machineDown() {
		return nil, c.downError(fmt.Sprintf("Recv(src=%s, tag=%s)", rankName(src), tagName(tag)))
	}
	req := &Request{
		world: c.world, isRecv: true, src: src, tag: tag, peer: src, dstNode: dstNode, size: size,
		owner: c.rank,
	}
	if c.world.spans != nil {
		req.span = c.beginOpSpan(fmt.Sprintf("recv←%s", rankName(src)), "mpi", dstNode)
	}
	// Try the unexpected queue first (FIFO matching).
	for i, env := range c.rank.unexpected {
		if req.matches(env) {
			c.rank.unexpected = append(c.rank.unexpected[:i], c.rank.unexpected[i+1:]...)
			c.world.startTransfer(c.rank, env, req)
			return req, nil
		}
	}
	c.rank.posted = append(c.rank.posted, req)
	return req, nil
}

// Recv is the blocking version of Irecv.
func (c *Ctx) Recv(src, tag int, size units.ByteSize, dstNode topology.NodeID) (Status, error) {
	req, err := c.Irecv(src, tag, size, dstNode)
	if err != nil {
		return Status{}, err
	}
	return c.Wait(req)
}

// machineDown reports whether the calling rank's own machine has been
// crashed by fault injection — the simulated software on a dead node
// cannot start new operations. Without a fault layer it costs one nil
// check.
func (c *Ctx) machineDown() bool {
	down, _ := c.world.fabric.MachineDown(c.rank.machine.ID)
	return down
}

// downError builds the structured failure for an operation attempted on
// the caller's crashed machine. Callers render op only after machineDown
// returns true, keeping string formatting off the healthy path.
func (c *Ctx) downError(op string) error {
	_, since := c.world.fabric.MachineDown(c.rank.machine.ID)
	return c.world.opError(c.Rank(), op, &simnet.DownError{Machine: c.rank.machine.ID, Since: since})
}

// Wait blocks until the request completes and returns its status. When
// the world's Resilience configures an OpTimeout, a request that stays
// incomplete for that many simulated seconds fails with an OpError
// wrapping ErrTimeout (a timed-out receive is withdrawn from the posted
// queue, so a late sender cannot complete it afterwards).
func (c *Ctx) Wait(req *Request) (Status, error) {
	if req == nil {
		return Status{}, fmt.Errorf("mpi: rank %d: Wait on nil request", c.Rank())
	}
	w := c.world
	var watchdog *engine.Timer
	if w.res.OpTimeout > 0 && !req.done {
		rank := c.Rank()
		watchdog = w.sim.After(w.res.OpTimeout, func() {
			if req.done {
				return
			}
			if req.isRecv && req.owner != nil {
				req.owner.removePosted(req)
			}
			req.complete(Status{}, w.opError(rank, req.opName(), ErrTimeout))
		})
	}
	for !req.done {
		// Lazy: the operation name is only rendered if this wait ends up
		// in a deadlock or watchdog diagnosis.
		c.proc.SetWaitStringer(req)
		req.sig.Wait(c.proc)
	}
	watchdog.Cancel()
	return req.status, req.err
}

// WaitAll waits for every request, returning the first error encountered.
func (c *Ctx) WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if _, err := c.Wait(r); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// matches implements MPI matching semantics for a posted receive.
func (r *Request) matches(env *envelope) bool {
	if r.src != AnySource && r.src != env.src {
		return false
	}
	if r.tag != AnyTag && r.tag != env.tag {
		return false
	}
	return true
}

// deliverEnvelope routes a send envelope to the destination rank,
// matching a posted receive if one exists.
func (w *World) deliverEnvelope(dst *rankState, env *envelope) {
	for i, req := range dst.posted {
		if req.matches(env) {
			dst.posted = append(dst.posted[:i], dst.posted[i+1:]...)
			w.startTransfer(dst, env, req)
			return
		}
	}
	dst.unexpected = append(dst.unexpected, env)
}

// startTransfer moves the message data. Intra-machine messages are local
// memory copies (modelled as instantaneous at this granularity);
// inter-machine messages go through the fabric. Messages the fabric drops
// are resent with exponential backoff, up to Resilience.MaxRetries times;
// a final failure is reported to both sides as a structured OpError
// naming their own rank and operation.
func (w *World) startTransfer(dst *rankState, env *envelope, req *Request) {
	srcMachine := w.ranks[env.src].machine
	st := Status{Source: env.src, Tag: env.tag, Size: env.size, Payload: env.payload}
	if srcMachine == dst.machine {
		w.sim.After(0, func() {
			req.complete(st, nil)
			if env.sendReq != nil {
				env.sendReq.complete(Status{Source: env.src, Tag: env.tag, Size: env.size}, nil)
			}
		})
		return
	}
	xfer := simnet.Transfer{
		Src: srcMachine, Dst: dst.machine,
		SrcNode: env.srcNode, DstNode: req.dstNode,
		Size: env.size,
	}
	// The wire transfer is causally the send's; eager sends have already
	// completed, so their data movement hangs off the receive instead.
	if env.sendReq != nil && env.sendReq.span != 0 {
		xfer.Parent = env.sendReq.span
	} else {
		xfer.Parent = req.span
	}
	finish := func(res simnet.Result, err error) {
		recvErr, sendErr := err, err
		if err != nil {
			recvErr = w.opError(dst.id, fmt.Sprintf("Recv(src=%d, tag=%d)", env.src, env.tag), err)
			sendErr = w.opError(env.src, fmt.Sprintf("Send(dst=%d, tag=%d)", dst.id, env.tag), err)
		}
		st.AvgRate = res.AvgRate
		req.complete(st, recvErr)
		if env.sendReq != nil {
			env.sendReq.complete(Status{Source: env.src, Tag: env.tag, Size: env.size}, sendErr)
		}
	}
	if w.res.MaxRetries == 0 {
		// Fast path: no retry machinery to allocate.
		w.fabric.DeliverAsync(xfer, finish)
		return
	}
	attempt := 0
	var send func()
	send = func() {
		// A receive that already failed (timeout) frees the channel:
		// stop resending into it.
		if req.done {
			return
		}
		w.fabric.DeliverAsync(xfer, func(res simnet.Result, err error) {
			if errors.Is(err, simnet.ErrMessageDropped) && attempt < w.res.MaxRetries {
				attempt++
				w.sim.After(w.res.backoff(attempt), send)
				return
			}
			finish(res, err)
		})
	}
	send()
}

// Barrier blocks until every rank has entered it.
func (c *Ctx) Barrier() {
	w := c.world
	var span obs.SpanID
	if w.spans != nil {
		span = c.beginOpSpan("barrier", "mpi", -1)
		defer func() { w.spans.EndSpan(span, w.sim.Now()) }()
	}
	w.barrierCount++
	if w.barrierCount == w.Size() {
		w.barrierCount = 0
		sig := w.barrierSig
		w.barrierSig = w.sim.NewSignal()
		sig.Fire()
		return
	}
	c.proc.SetWaitReason("Barrier")
	w.barrierSig.Wait(c.proc)
}

// Compute runs a kernel assignment until each core has moved perCoreBytes
// through memory; it blocks the rank and returns the aggregate observed
// bandwidth (weak scaling, as in the paper's benchmark).
func (c *Ctx) Compute(a kernels.Assignment, perCoreBytes units.ByteSize) (units.Bandwidth, error) {
	m := c.rank.machine
	if c.machineDown() {
		return 0, c.downError("Compute")
	}
	rs := c.rank
	streams, err := a.AppendStreams(rs.streams[:0], m.Sys, 0)
	if err != nil {
		return 0, fmt.Errorf("mpi: rank %d: %w", c.Rank(), err)
	}
	rs.streams = streams
	start := c.Now()
	var span obs.SpanID
	if c.world.spans != nil {
		span = c.beginOpSpan("compute", "compute", -1)
	}
	// One batch, one re-solve: the per-core flows start at the same
	// instant.
	rs.flows = m.Flows.StartAll(rs.flows, streams, perCoreBytes, span)
	for i := range rs.flows {
		c.proc.SetWaitReason("Compute")
		rs.flows[i].Wait(c.proc)
	}
	if span != 0 {
		c.world.spans.EndSpan(span, c.Now())
	}
	elapsed := c.Now() - start
	if elapsed <= 0 {
		return 0, nil
	}
	total := float64(perCoreBytes.Bytes()) * float64(len(streams))
	return units.Bandwidth(total / units.BytesPerGB / elapsed), nil
}
