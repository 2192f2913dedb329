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
	// envs and recvs hold the envelopes and receive requests of finished
	// hops, which later hops reuse (postHop, recvHop). The ranks run one
	// at a time, so one list of each serves the whole world.
	envs  []*envelope
	recvs []*Request
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
	// sends is Bcast's scratch: the rendezvous send requests it waits
	// for before it returns.
	sends []*Request
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

// envelope is one message: the send request Isend returns, and what the
// receiving side needs to match and move the message, in one object. It
// is the action of its own event and the simnet.Recipient of its fabric
// transfers, so a message allocates nothing more on its way.
type envelope struct {
	send    Request
	payload any
	// recv is the matched receive, set when the message starts moving.
	recv *Request
	// event completes an intra-machine message at the instant it is
	// matched, or resends a dropped one after its backoff; attempt
	// counts the resends.
	event   engine.Timer
	attempt int
}

// src reports the sending rank.
func (env *envelope) src() int { return env.send.owner.id }

// rendezvous reports whether the send completes only once the data has
// been delivered; an eager send completes when it is posted.
func (env *envelope) rendezvous() bool { return env.send.size > EagerLimit }

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

// Request is a non-blocking operation handle. Irecv allocates one, and
// Isend allocates its request inside the message's envelope; the caller
// keeps both, so neither is ever reused. The requests of collective and
// communicator hops, which no caller sees, come from the world's free
// lists, and go back to them once the hop has completed without error:
// a request that failed, a timed-out receive whose message lands late
// included, is never handed out again. A completed receive's Status is
// written into the request.
type Request struct {
	world  *World
	sig    engine.Signal
	status Status
	err    error
	// peer is the other side: dst for sends, src for receives (may be
	// AnySource); a receive matches on it and on tag.
	peer, tag int
	// node is the NUMA node of the request's buffer on its rank's
	// machine: the data's source for a send, its destination for a
	// receive.
	node topology.NodeID
	size units.ByteSize
	// value is the float64 a Reduce or Allreduce hop carries: set on the
	// send, and copied into the matched receive when the message
	// completes, so a hop does not box it into Status.Payload.
	value float64
	// owner is the rank that posted the request.
	owner *rankState
	// span is the operation's causal span, ended at completion (0 when
	// spans are off).
	span         obs.SpanID
	done, isRecv bool
	// hop marks a request of a collective or communicator message, which
	// no caller holds: it comes from the world's free lists, and the
	// world takes an eager hop's envelope back once its receive has
	// completed without error.
	hop bool
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
	// watchdog is the OpTimeout event of waiting, the request the rank
	// waits on in Wait. It is bound to the rank once (opTimeout), so a
	// timed wait allocates nothing.
	watchdog engine.Timer
	waiting  *Request
}

// opTimeout is the Action of a rank's watchdog: the request the rank
// waits on has stayed incomplete for OpTimeout, and fails with
// ErrTimeout. A timed-out receive is withdrawn from the posted queue.
type opTimeout Ctx

func (t *opTimeout) Act() {
	req := t.waiting
	if req.done {
		return
	}
	if req.isRecv && req.owner != nil {
		req.owner.removePosted(req)
	}
	req.complete(Status{}, t.world.opError(t.rank.id, req.opName(), ErrTimeout))
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
			c := &Ctx{world: w, rank: rs, proc: p}
			c.watchdog.Bind(w.sim, (*opTimeout)(c))
			main(c)
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
// sender's machine. tag must lie in [0, collectiveTagBase): the tags
// above it belong to collectives and communicators. payload is an
// optional value handed to the receiver. It allocates one object, the
// message's envelope, which holds the returned request.
func (c *Ctx) Isend(dst, tag int, size units.ByteSize, srcNode topology.NodeID, payload any) (*Request, error) {
	if tag < 0 || tag >= collectiveTagBase {
		return nil, fmt.Errorf("mpi: rank %d: Isend with tag %d, outside the user tags [0, %d)", c.Rank(), tag, collectiveTagBase)
	}
	return c.isend(dst, tag, size, srcNode, payload, 0, false)
}

// isend is Isend without the tag check, with the value a Reduce hop
// carries (see Request.value); a hop's envelope comes from the world's
// free list.
func (c *Ctx) isend(dst, tag int, size units.ByteSize, srcNode topology.NodeID, payload any, value float64, hop bool) (*Request, error) {
	if dst < 0 || dst >= c.world.Size() {
		return nil, fmt.Errorf("mpi: rank %d: Isend to invalid rank %d", c.Rank(), dst)
	}
	if size <= 0 {
		return nil, fmt.Errorf("mpi: rank %d: Isend with non-positive size %d", c.Rank(), size)
	}
	if err := c.checkNode("Isend from", srcNode); err != nil {
		return nil, err
	}
	if c.machineDown() {
		return nil, c.downError(fmt.Sprintf("Send(dst=%d, tag=%d)", dst, tag))
	}
	var env *envelope
	if hop {
		env = take(&c.world.envs)
	} else {
		env = new(envelope)
	}
	*env = envelope{
		send:    Request{world: c.world, peer: dst, tag: tag, node: srcNode, size: size, value: value, owner: c.rank, hop: hop},
		payload: payload,
	}
	env.event.Bind(c.world.sim, env)
	req := &env.send
	if c.world.spans != nil {
		req.span = c.beginOpSpan(fmt.Sprintf("send→%d", dst), "mpi", srcNode)
	}
	if !env.rendezvous() {
		// Eager: the send buffer is considered reusable immediately.
		req.complete(Status{Source: c.Rank(), Tag: tag, Size: size}, nil)
	}
	c.world.ranks[dst].deliverEnvelope(env)
	return req, nil
}

// checkNode refuses a NUMA node outside the calling rank's platform, when
// the operation is posted rather than when its data moves.
func (c *Ctx) checkNode(op string, node topology.NodeID) error {
	plat := c.rank.machine.Sys.Platform()
	if int(node) < 0 || int(node) >= plat.NNodes() {
		return fmt.Errorf("mpi: rank %d: %s NUMA node %d, outside %s's nodes 0-%d", c.Rank(), op, node, plat.Name, plat.NNodes()-1)
	}
	return nil
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
// machine. src may be AnySource; tag is AnyTag, which matches user tags
// only, or lies in [0, collectiveTagBase) like Isend's. It allocates one
// object, the returned request.
func (c *Ctx) Irecv(src, tag int, size units.ByteSize, dstNode topology.NodeID) (*Request, error) {
	if tag != AnyTag && (tag < 0 || tag >= collectiveTagBase) {
		return nil, fmt.Errorf("mpi: rank %d: Irecv with tag %d, outside the user tags [0, %d) and not AnyTag", c.Rank(), tag, collectiveTagBase)
	}
	return c.irecv(src, tag, size, dstNode, false)
}

// irecv is Irecv without the tag check; a hop's request comes from the
// world's free list.
func (c *Ctx) irecv(src, tag int, size units.ByteSize, dstNode topology.NodeID, hop bool) (*Request, error) {
	if src != AnySource && (src < 0 || src >= c.world.Size()) {
		return nil, fmt.Errorf("mpi: rank %d: Irecv from invalid rank %d", c.Rank(), src)
	}
	if err := c.checkNode("Irecv into", dstNode); err != nil {
		return nil, err
	}
	if c.machineDown() {
		return nil, c.downError(fmt.Sprintf("Recv(src=%s, tag=%s)", rankName(src), tagName(tag)))
	}
	var req *Request
	if hop {
		req = take(&c.world.recvs)
	} else {
		req = new(Request)
	}
	*req = Request{world: c.world, isRecv: true, peer: src, tag: tag, node: dstNode, size: size, owner: c.rank, hop: hop}
	if c.world.spans != nil {
		req.span = c.beginOpSpan(fmt.Sprintf("recv←%s", rankName(src)), "mpi", dstNode)
	}
	// Try the unexpected queue first (FIFO matching).
	for i, env := range c.rank.unexpected {
		if req.matches(env) {
			c.rank.unexpected = append(c.rank.unexpected[:i], c.rank.unexpected[i+1:]...)
			env.move(req)
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
	timed := w.res.OpTimeout > 0 && !req.done
	if timed {
		c.waiting = req
		c.watchdog.Schedule(w.sim.Now() + w.res.OpTimeout)
	}
	for !req.done {
		// Lazy: the operation name is only rendered if this wait ends up
		// in a deadlock or watchdog diagnosis.
		c.proc.SetWaitStringer(req)
		req.sig.Wait(c.proc)
	}
	if timed {
		c.watchdog.Cancel()
		c.waiting = nil
	}
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

// matches implements MPI matching semantics for a posted receive. A
// wildcard tag matches user tags only: as in MPI, collective and
// communicator traffic, tagged from collectiveTagBase up, never matches
// a point-to-point receive.
func (r *Request) matches(env *envelope) bool {
	if r.peer != AnySource && r.peer != env.src() {
		return false
	}
	if r.tag == AnyTag {
		return env.send.tag < collectiveTagBase
	}
	return r.tag == env.send.tag
}

// deliverEnvelope routes a send envelope to its destination rank rs,
// matching a posted receive if one exists.
func (rs *rankState) deliverEnvelope(env *envelope) {
	for i, req := range rs.posted {
		if req.matches(env) {
			rs.posted = append(rs.posted[:i], rs.posted[i+1:]...)
			env.move(req)
			return
		}
	}
	rs.unexpected = append(rs.unexpected, env)
}

// move starts moving the message into the matched receive recv.
// Intra-machine messages are local memory copies (modelled as
// instantaneous at this granularity), which the message's event
// completes at the current instant; inter-machine messages go through the
// fabric.
func (env *envelope) move(recv *Request) {
	env.recv = recv
	if env.local() {
		env.event.Schedule(env.send.world.sim.Now())
		return
	}
	env.deliver()
}

// local reports whether the sender and the receiver share a machine.
func (env *envelope) local() bool { return env.send.owner.machine == env.recv.owner.machine }

// deliver hands the message to the fabric. The wire transfer is causally
// the send's; eager sends have already completed, so their data movement
// hangs off the receive instead.
func (env *envelope) deliver() {
	xfer := simnet.Transfer{
		Src: env.send.owner.machine, Dst: env.recv.owner.machine,
		SrcNode: env.send.node, DstNode: env.recv.node,
		Size:   env.send.size,
		Parent: env.recv.span,
	}
	if env.rendezvous() && env.send.span != 0 {
		xfer.Parent = env.send.span
	}
	env.send.world.fabric.DeliverAsync(xfer, env)
}

// Delivered implements simnet.Recipient. A message the fabric dropped is
// resent after an exponential backoff, up to Resilience.MaxRetries times;
// any other outcome completes it.
func (env *envelope) Delivered(res simnet.Result, err error) {
	w := env.send.world
	if errors.Is(err, simnet.ErrMessageDropped) && env.attempt < w.res.MaxRetries {
		env.attempt++
		env.event.Schedule(w.sim.Now() + w.res.backoff(env.attempt))
		return
	}
	env.complete(res.AvgRate, err)
}

// Act implements engine.Action for the message's event: it completes an
// intra-machine message, and resends a dropped one unless its receive
// has already failed (timed out), which frees the channel.
func (env *envelope) Act() {
	switch {
	case env.local():
		env.complete(0, nil)
	case !env.recv.done:
		env.deliver()
	}
}

// complete completes the receive, and the send if it is a rendezvous. A
// failure is reported to both sides as a structured OpError naming their
// own rank and operation. An eager hop's envelope goes back to the
// world's free list once it has completed its receive without error; the
// envelope of a receive that had already failed (timed out) does not.
func (env *envelope) complete(rate units.Bandwidth, err error) {
	w, src, dst, tag := env.send.world, env.src(), env.recv.owner.id, env.send.tag
	recvErr, sendErr := err, err
	if err != nil {
		recvErr = w.opError(dst, fmt.Sprintf("Recv(src=%d, tag=%d)", src, tag), err)
		sendErr = w.opError(src, fmt.Sprintf("Send(dst=%d, tag=%d)", dst, tag), err)
	}
	late := env.recv.done
	env.recv.value = env.send.value
	env.recv.complete(Status{Source: src, Tag: tag, Size: env.send.size, Payload: env.payload, AvgRate: rate}, recvErr)
	switch {
	case env.rendezvous():
		env.send.complete(Status{Source: src, Tag: tag, Size: env.send.size}, sendErr)
	case env.send.hop && err == nil && !late:
		w.envs = append(w.envs, env)
	}
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
