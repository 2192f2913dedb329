package mpi

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"memcontention/internal/engine"
	"memcontention/internal/kernels"
	"memcontention/internal/memsys"
	"memcontention/internal/obs"
	"memcontention/internal/simnet"
	"memcontention/internal/topology"
	"memcontention/internal/units"
)

// newWorld builds a world with nMachines henri machines × ranksPer ranks.
func newWorld(t *testing.T, nMachines, ranksPer int) (*engine.Sim, *World) {
	t.Helper()
	return worldOn(t, henriSystem(t), nMachines, ranksPer)
}

// henriSystem builds the memory system of a henri machine.
func henriSystem(tb testing.TB) *memsys.System {
	tb.Helper()
	prof, err := memsys.ProfileFor("henri")
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := memsys.New(topology.Henri(), prof)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// worldOn builds a world with nMachines machines of memory system sys ×
// ranksPer ranks.
func worldOn(tb testing.TB, sys *memsys.System, nMachines, ranksPer int) (*engine.Sim, *World) {
	tb.Helper()
	sim := engine.NewSim()
	fabric, err := simnet.NewFabric(sim, 12.1, 1.5e-6)
	if err != nil {
		tb.Fatal(err)
	}
	var machines []*simnet.Machine
	for i := 0; i < nMachines; i++ {
		m, err := simnet.NewMachine(sim, i, sys)
		if err != nil {
			tb.Fatal(err)
		}
		if err := fabric.Attach(m); err != nil {
			tb.Fatal(err)
		}
		machines = append(machines, m)
	}
	w, err := NewWorld(sim, fabric, machines, ranksPer)
	if err != nil {
		tb.Fatal(err)
	}
	return sim, w
}

func run(t *testing.T, sim *engine.Sim, w *World, main func(*Ctx)) {
	t.Helper()
	w.Launch(main)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvBasic(t *testing.T) {
	sim, w := newWorld(t, 2, 1)
	var got Status
	run(t, sim, w, func(c *Ctx) {
		switch c.Rank() {
		case 0:
			if err := c.Send(1, 5, 64*units.MiB, 0, "hello"); err != nil {
				t.Error(err)
			}
		case 1:
			st, err := c.Recv(0, 5, 64*units.MiB, 0)
			if err != nil {
				t.Error(err)
			}
			got = st
		}
	})
	if got.Source != 0 || got.Tag != 5 || got.Size != 64*units.MiB {
		t.Errorf("status = %+v", got)
	}
	if got.Payload != "hello" {
		t.Errorf("payload = %v", got.Payload)
	}
	if got.AvgRate <= 0 {
		t.Error("inter-machine receive must report a transfer rate")
	}
}

func TestRecvBeforeSend(t *testing.T) {
	// Posted-receive path: the receive is posted first, the send matches
	// it later.
	sim, w := newWorld(t, 2, 1)
	completed := false
	run(t, sim, w, func(c *Ctx) {
		switch c.Rank() {
		case 0:
			req, err := c.Irecv(1, 3, units.MiB, 0)
			if err != nil {
				t.Error(err)
			}
			if _, err := c.Wait(req); err != nil {
				t.Error(err)
			}
			completed = true
		case 1:
			c.Sleep(1e-3)
			if err := c.Send(0, 3, units.MiB, 0, nil); err != nil {
				t.Error(err)
			}
		}
	})
	if !completed {
		t.Error("posted receive never completed")
	}
}

func TestTagMatching(t *testing.T) {
	sim, w := newWorld(t, 2, 1)
	var order []int
	run(t, sim, w, func(c *Ctx) {
		switch c.Rank() {
		case 0:
			// Send tag 2 first, then tag 1: the receiver asks for tag
			// 1 first and must get the right message regardless.
			if err := c.Send(1, 2, units.KiB, 0, 2); err != nil {
				t.Error(err)
			}
			if err := c.Send(1, 1, units.KiB, 0, 1); err != nil {
				t.Error(err)
			}
		case 1:
			c.Sleep(1e-3) // let both arrive as unexpected
			for _, tag := range []int{1, 2} {
				st, err := c.Recv(0, tag, units.KiB, 0)
				if err != nil {
					t.Error(err)
				}
				order = append(order, st.Payload.(int))
			}
		}
	})
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("tag matching broken: %v", order)
	}
}

func TestWildcards(t *testing.T) {
	sim, w := newWorld(t, 2, 2) // ranks 0,1 on machine 0; 2,3 on machine 1
	received := map[int]bool{}
	run(t, sim, w, func(c *Ctx) {
		if c.Rank() == 0 {
			for i := 0; i < 3; i++ {
				st, err := c.Recv(AnySource, AnyTag, units.KiB, 0)
				if err != nil {
					t.Error(err)
				}
				received[st.Source] = true
			}
			return
		}
		if err := c.Send(0, 10+c.Rank(), units.KiB, 0, nil); err != nil {
			t.Error(err)
		}
	})
	if len(received) != 3 {
		t.Errorf("wildcard receive saw sources %v, want 3 distinct", received)
	}
}

// TestWildcardTagSkipsCollectives: a pending (AnySource, AnyTag) receive
// is left alone by an Allreduce's messages, as in MPI, and gets the user
// message sent after it. It used to take the Reduce message and deadlock
// the job.
func TestWildcardTagSkipsCollectives(t *testing.T) {
	sim, w := newWorld(t, 2, 1)
	var sums [2]float64
	var got Status
	run(t, sim, w, func(c *Ctx) {
		var req *Request
		if c.Rank() == 0 {
			var err error
			if req, err = c.Irecv(AnySource, AnyTag, 100, 0); err != nil {
				t.Error(err)
				return
			}
		}
		sum, err := c.Allreduce(8, 0, float64(c.Rank()+1), Sum)
		if err != nil {
			t.Error(err)
			return
		}
		sums[c.Rank()] = sum
		if c.Rank() == 1 {
			if err := c.Send(0, 5, 100, 0, nil); err != nil {
				t.Error(err)
			}
			return
		}
		if got, err = c.Wait(req); err != nil {
			t.Error(err)
		}
	})
	if sums != [2]float64{3, 3} {
		t.Errorf("Allreduce sums = %v, want 3 on both ranks", sums)
	}
	if got.Source != 1 || got.Tag != 5 {
		t.Errorf("wildcard receive got source %d tag %d, want source 1 tag 5", got.Source, got.Tag)
	}
}

// TestUserTagBelowCollectiveTags: a point-to-point tag at or above
// collectiveTagBase is refused at the call, naming the bound, so that a
// user message cannot match a collective's receive. When Send accepted
// collectiveTagBase+2, the Reduce tag, the root's Reduce took that
// message for rank 1's hop and returned 1 instead of 3.
func TestUserTagBelowCollectiveTags(t *testing.T) {
	sim, w := newWorld(t, 2, 1)
	var sendErr error
	var sum float64
	run(t, sim, w, func(c *Ctx) {
		if c.Rank() == 1 {
			sendErr = c.Send(0, collectiveTagBase+2, 8, 0, nil)
		}
		v, err := c.Reduce(0, 8, 0, float64(c.Rank()+1), Sum)
		if err != nil {
			t.Error(err)
		}
		if c.Rank() == 0 {
			sum = v
		}
	})
	if sendErr == nil || !strings.Contains(sendErr.Error(), "[0, 1048576)") {
		t.Errorf("Send with tag collectiveTagBase+2 returned %v, want an error naming [0, 1048576)", sendErr)
	}
	if sum != 3 {
		t.Errorf("Reduce gave %v on the root, want 3", sum)
	}
}

// TestRecvTagRange: a receive's tag is AnyTag or a user tag; any other
// tag is refused at the call, naming the bound. Irecv(1, -5) used to be
// accepted, could never match, and deadlocked the job with the wait
// state "Recv(src=1, tag=any)".
func TestRecvTagRange(t *testing.T) {
	sim, w := newWorld(t, 2, 1)
	run(t, sim, w, func(c *Ctx) {
		if c.Rank() != 0 {
			return
		}
		for _, tag := range []int{-5, collectiveTagBase} {
			req, err := c.Irecv(1, tag, 8, 0)
			if err == nil || !strings.Contains(err.Error(), "[0, 1048576)") {
				t.Errorf("Irecv(1, %d) returned %v, want an error naming [0, 1048576)", tag, err)
			}
			if req != nil {
				t.Errorf("Irecv(1, %d) posted a request", tag)
			}
		}
	})
}

// lateFirst is a fault model that delays the fabric's first transfer by
// extra seconds and leaves every other one alone.
type lateFirst struct{ extra float64 }

func (lateFirst) MachineDown(int, float64) (bool, float64) { return false, 0 }

func (l lateFirst) TransferFault(_, _, xfer int, _, _ float64) simnet.TransferFault {
	if xfer == 1 {
		return simnet.TransferFault{ExtraLatency: l.extra}
	}
	return simnet.TransferFault{}
}

// TestTimedOutHopNotReused: the root's Reduce receive times out at
// 100 µs while rank 1's hop is in flight, and the hop lands at about
// 121.5 µs, while the root's next Allreduce is waiting for rank 1, which
// only joins at 150 µs. The late landing completes the timed-out request
// and nothing else: the Allreduce gets its sum, and no failed request is
// on the world's free list. Had the timed-out request been reused for
// the Allreduce's receive, the late hop would have completed it with
// round 1's value, and both ranks would have got 12 instead of 30.
func TestTimedOutHopNotReused(t *testing.T) {
	sim, w := newWorld(t, 2, 1)
	w.fabric.SetFaults(lateFirst{extra: 120e-6})
	if err := w.SetResilience(Resilience{OpTimeout: 100e-6}); err != nil {
		t.Fatal(err)
	}
	var reduceErr error
	var sums [2]float64
	run(t, sim, w, func(c *Ctx) {
		_, err := c.Reduce(0, 8, 0, float64(c.Rank()+1), Sum)
		if c.Rank() == 0 {
			reduceErr = err
		} else {
			if err != nil {
				t.Error(err)
			}
			c.Sleep(150e-6)
		}
		if sums[c.Rank()], err = c.Allreduce(8, 0, float64(10*(c.Rank()+1)), Sum); err != nil {
			t.Error(err)
		}
	})
	if !errors.Is(reduceErr, ErrTimeout) {
		t.Errorf("the root's Reduce returned %v, want a timeout", reduceErr)
	}
	if sums != [2]float64{30, 30} {
		t.Errorf("Allreduce after the late hop gave %v, want 30 on both ranks", sums)
	}
	for _, r := range w.recvs {
		if r.err != nil {
			t.Errorf("a failed receive request is on the free list: %v", r.err)
		}
	}
}

func TestEagerVsRendezvous(t *testing.T) {
	sim, w := newWorld(t, 2, 1)
	var eagerDone, rendezvousDone bool
	run(t, sim, w, func(c *Ctx) {
		switch c.Rank() {
		case 0:
			// Eager: completes immediately even though no receive is
			// posted yet.
			req, err := c.Isend(1, 1, units.KiB, 0, nil)
			if err != nil {
				t.Error(err)
			}
			eagerDone = req.Test()
			// Rendezvous: must NOT complete before the receiver posts.
			req2, err := c.Isend(1, 2, 64*units.MiB, 0, nil)
			if err != nil {
				t.Error(err)
			}
			rendezvousDone = req2.Test()
			c.Wait(req2)
		case 1:
			c.Sleep(1e-3)
			if _, err := c.Recv(0, 1, units.KiB, 0); err != nil {
				t.Error(err)
			}
			if _, err := c.Recv(0, 2, 64*units.MiB, 0); err != nil {
				t.Error(err)
			}
		}
	})
	if !eagerDone {
		t.Error("eager send must complete at post time")
	}
	if rendezvousDone {
		t.Error("rendezvous send must wait for the receiver")
	}
}

func TestIntraMachineMessage(t *testing.T) {
	sim, w := newWorld(t, 1, 2)
	var st Status
	run(t, sim, w, func(c *Ctx) {
		switch c.Rank() {
		case 0:
			if err := c.Send(1, 1, 8*units.MiB, 0, "local"); err != nil {
				t.Error(err)
			}
		case 1:
			var err error
			st, err = c.Recv(0, 1, 8*units.MiB, 0)
			if err != nil {
				t.Error(err)
			}
		}
	})
	if st.Payload != "local" {
		t.Error("intra-machine payload lost")
	}
	if st.AvgRate != 0 {
		t.Error("intra-machine message must not report a fabric rate")
	}
}

func TestBarrierSynchronises(t *testing.T) {
	sim, w := newWorld(t, 2, 2)
	var after []float64
	run(t, sim, w, func(c *Ctx) {
		c.Sleep(float64(c.Rank()) * 1e-3) // ranks arrive staggered
		c.Barrier()
		after = append(after, c.Now())
	})
	if len(after) != 4 {
		t.Fatalf("%d ranks passed the barrier", len(after))
	}
	for _, ts := range after {
		if math.Abs(ts-3e-3) > 1e-12 {
			t.Errorf("rank left barrier at %v, want 3ms (slowest rank)", ts)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	sim, w := newWorld(t, 2, 1)
	count := 0
	run(t, sim, w, func(c *Ctx) {
		for i := 0; i < 3; i++ {
			c.Barrier()
			if c.Rank() == 0 {
				count++
			}
		}
	})
	if count != 3 {
		t.Errorf("barrier rounds = %d, want 3", count)
	}
}

func TestWaitAll(t *testing.T) {
	sim, w := newWorld(t, 2, 1)
	run(t, sim, w, func(c *Ctx) {
		switch c.Rank() {
		case 0:
			var reqs []*Request
			for i := 0; i < 4; i++ {
				r, err := c.Isend(1, i, units.MiB, 0, nil)
				if err != nil {
					t.Error(err)
				}
				reqs = append(reqs, r)
			}
			if err := c.WaitAll(reqs...); err != nil {
				t.Error(err)
			}
		case 1:
			var reqs []*Request
			for i := 0; i < 4; i++ {
				r, err := c.Irecv(0, i, units.MiB, 0)
				if err != nil {
					t.Error(err)
				}
				reqs = append(reqs, r)
			}
			if err := c.WaitAll(reqs...); err != nil {
				t.Error(err)
			}
		}
	})
}

func TestValidationErrors(t *testing.T) {
	sim, w := newWorld(t, 2, 1)
	run(t, sim, w, func(c *Ctx) {
		if c.Rank() != 0 {
			return
		}
		if _, err := c.Isend(99, 1, units.KiB, 0, nil); err == nil {
			t.Error("send to unknown rank must fail")
		}
		if _, err := c.Isend(1, -1, units.KiB, 0, nil); err == nil {
			t.Error("negative tag send must fail")
		}
		if _, err := c.Isend(1, 1, 0, 0, nil); err == nil {
			t.Error("zero-size send must fail")
		}
		if _, err := c.Irecv(99, 1, units.KiB, 0); err == nil {
			t.Error("receive from unknown rank must fail")
		}
		if _, err := c.Wait(nil); err == nil {
			t.Error("wait on nil request must fail")
		}
	})
}

func TestNewWorldValidation(t *testing.T) {
	sim := engine.NewSim()
	fabric, err := simnet.NewFabric(sim, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorld(sim, fabric, nil, 1); err == nil {
		t.Error("no machines must fail")
	}
	prof, _ := memsys.ProfileFor("henri")
	sys, _ := memsys.New(topology.Henri(), prof)
	m, _ := simnet.NewMachine(sim, 0, sys)
	if _, err := NewWorld(sim, fabric, []*simnet.Machine{m}, 0); err == nil {
		t.Error("zero ranks per machine must fail")
	}
}

func TestComputeAggregatesBandwidth(t *testing.T) {
	sim, w := newWorld(t, 1, 1)
	var bw units.Bandwidth
	run(t, sim, w, func(c *Ctx) {
		cores := c.Machine().Topo.SocketSet(0).Take(4)
		a := kernels.Assignment{
			Kernel: kernels.New(kernels.NTMemset),
			Cores:  []topology.CoreID(cores),
			Node:   0,
		}
		var err error
		bw, err = c.Compute(a, 64*units.MiB)
		if err != nil {
			t.Error(err)
		}
	})
	// 4 unsaturated local cores: 4 × 5 GB/s.
	if math.Abs(bw.GBps()-20) > 1e-6 {
		t.Errorf("compute bandwidth = %v, want 20", bw.GBps())
	}
}

// TestComputeResolvesOnce: a compute phase starts its per-core flows as
// one batch, so the flow manager re-solves once when it starts, not once
// per core.
func TestComputeResolvesOnce(t *testing.T) {
	sim, w := newWorld(t, 1, 1)
	reg := obs.NewRegistry()
	w.ranks[0].machine.Flows.SetRegistry(reg)
	started := reg.Counter("memcontention_engine_flows_started_total", "", nil)
	resolves := reg.Counter("memcontention_engine_rate_resolves_total", "", nil)
	var midFlight float64
	sim.At(1e-6, func() { midFlight = resolves.Value() })
	run(t, sim, w, func(c *Ctx) {
		a := kernels.Assignment{
			Kernel: kernels.New(kernels.NTMemset),
			Cores:  []topology.CoreID(c.Machine().Topo.SocketSet(0).Take(8)),
			Node:   0,
		}
		if _, err := c.Compute(a, 64*units.MiB); err != nil {
			t.Error(err)
		}
	})
	if got := started.Value(); got != 8 {
		t.Errorf("compute started %v flows, want 8", got)
	}
	if midFlight != 1 {
		t.Errorf("starting 8 compute flows re-solved %v times, want 1", midFlight)
	}
}

// TestComputeSteadyStateAllocs: after a rank's first compute phase, the
// next ones allocate nothing: the phase's streams and flow handles reuse
// the rank's storage, and its completion and wake-up events are the flow
// manager's and the process's own.
func TestComputeSteadyStateAllocs(t *testing.T) {
	sim, w := newWorld(t, 1, 1)
	allocs := -1.0
	run(t, sim, w, func(c *Ctx) {
		a := kernels.Assignment{
			Kernel: kernels.New(kernels.NTMemset),
			Cores:  []topology.CoreID(c.Machine().Topo.SocketSet(0).Take(4)),
			Node:   0,
		}
		compute := func() {
			if _, err := c.Compute(a, units.MiB); err != nil {
				t.Error(err)
			}
		}
		compute()
		allocs = testing.AllocsPerRun(20, compute)
	})
	if allocs != 0 {
		t.Errorf("a steady-state compute phase allocates %v times, want 0", allocs)
	}
}

// TestMessageAllocs pins what a message costs: its send and its receive
// allocate one object each, which the caller keeps, and nothing else: a
// message between machines reuses the fabric's transfer objects, and no
// callback on the way allocates. Two ranks ping-pong n round trips on a
// fresh world, and the difference between 2n and n round trips cancels
// the set-up. The runtime recycles goroutines or not from run to run,
// which moves a run by an allocation or so: the bound allows a tenth of
// an allocation per message for it.
func TestMessageAllocs(t *testing.T) {
	sys := henriSystem(t)
	for _, tc := range []struct {
		name               string
		machines, ranksPer int
		size               units.ByteSize
		want               float64
	}{
		{"eager intra-machine", 1, 2, 8, 2},
		{"eager fabric", 2, 1, 8, 2},
		{"rendezvous fabric", 2, 1, EagerLimit + 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pingPong := func(rounds int) float64 {
				return testing.AllocsPerRun(5, func() {
					sim, w := worldOn(t, sys, tc.machines, tc.ranksPer)
					w.Launch(func(c *Ctx) {
						peer := 1 - c.Rank()
						for i := 0; i < rounds; i++ {
							if c.Rank() == 1 {
								if _, err := c.Recv(peer, 0, tc.size, 0); err != nil {
									t.Error(err)
								}
							}
							if err := c.Send(peer, 0, tc.size, 0, nil); err != nil {
								t.Error(err)
							}
							if c.Rank() == 0 {
								if _, err := c.Recv(peer, 0, tc.size, 0); err != nil {
									t.Error(err)
								}
							}
						}
					})
					if err := sim.Run(); err != nil {
						t.Fatal(err)
					}
				})
			}
			const n = 100
			if got := (pingPong(2*n) - pingPong(n)) / (2 * n); got > tc.want+0.1 {
				t.Errorf("a message allocates %v times, want at most %v", got, tc.want)
			}
		})
	}
}

// TestAllreduceAllocs pins what an Allreduce over 2 machines × 2 ranks
// allocates once the world has run one: nothing, also when an OpTimeout
// guards every wait. Its 6 hops reuse the envelopes and receive requests
// of earlier hops, the 2 that cross the fabric reuse its transfer
// objects, every hop, the broadcast's included, carries the value in its
// requests instead of boxing it, and a wait that parks queues its rank's
// own watchdog event. Before the hops' storage was reused, an Allreduce
// allocated 15 times.
func TestAllreduceAllocs(t *testing.T) {
	sys := henriSystem(t)
	for _, res := range []Resilience{{}, {OpTimeout: 1}} {
		allreduce := func(rounds int) float64 {
			return testing.AllocsPerRun(5, func() {
				sim, w := worldOn(t, sys, 2, 2)
				if err := w.SetResilience(res); err != nil {
					t.Fatal(err)
				}
				w.Launch(func(c *Ctx) {
					for i := 0; i < rounds; i++ {
						if _, err := c.Allreduce(8, 0, float64(c.Rank()+1), Sum); err != nil {
							t.Error(err)
						}
					}
				})
				if err := sim.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		const n = 100
		if got := (allreduce(2*n) - allreduce(n)) / n; got > 0.1 {
			t.Errorf("with OpTimeout %v, an Allreduce allocates %v times, want 0", res.OpTimeout, got)
		}
	}
}

// TestNodeOutOfRangeRefused: a send or receive buffer on a NUMA node the
// rank's platform does not have is refused when the operation is posted,
// naming the rank and the node, also for a message that never crosses
// the fabric.
func TestNodeOutOfRangeRefused(t *testing.T) {
	sim, w := newWorld(t, 1, 2)
	run(t, sim, w, func(c *Ctx) {
		peer := 1 - c.Rank()
		var err error
		if c.Rank() == 0 {
			_, err = c.Isend(peer, 0, units.KiB, 9, nil)
		} else {
			_, err = c.Irecv(peer, 0, units.KiB, -1)
		}
		want := map[int]string{0: "rank 0: Isend from NUMA node 9", 1: "rank 1: Irecv into NUMA node -1"}[c.Rank()]
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("rank %d: err = %v, want %q", c.Rank(), err, want)
		}
	})
}

func TestDeterministicSchedule(t *testing.T) {
	trace := func() string {
		sim, w := newWorld(t, 2, 2)
		var events []string
		w.Launch(func(c *Ctx) {
			for step := 0; step < 2; step++ {
				peer := (c.Rank() + 2) % 4
				if c.Rank() < 2 {
					if err := c.Send(peer, step, units.MiB, 0, nil); err != nil {
						t.Error(err)
					}
				} else {
					st, err := c.Recv(peer, step, units.MiB, 0)
					if err != nil {
						t.Error(err)
					}
					events = append(events, fmt.Sprintf("%d<-%d@%.9f", c.Rank(), st.Source, c.Now()))
				}
				c.Barrier()
			}
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(events, ";")
	}
	first := trace()
	for i := 0; i < 3; i++ {
		if got := trace(); got != first {
			t.Fatalf("MPI schedule not deterministic:\n%s\n%s", first, got)
		}
	}
}

func TestUnmatchedRecvDeadlocks(t *testing.T) {
	sim, w := newWorld(t, 2, 1)
	w.Launch(func(c *Ctx) {
		if c.Rank() == 0 {
			c.Recv(1, 1, units.MiB, 0) // never sent
		}
	})
	err := sim.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("unmatched receive must deadlock, got %v", err)
	}
}

func TestWorldSize(t *testing.T) {
	_, w := newWorld(t, 3, 2)
	if w.Size() != 6 {
		t.Errorf("Size = %d, want 6", w.Size())
	}
}

func TestEagerLimitBoundary(t *testing.T) {
	sim, w := newWorld(t, 2, 1)
	run(t, sim, w, func(c *Ctx) {
		switch c.Rank() {
		case 0:
			// Exactly at the limit: still eager.
			atLimit, err := c.Isend(1, 1, EagerLimit, 0, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if !atLimit.Test() {
				t.Error("a send of exactly EagerLimit bytes must be eager")
			}
			// One byte over: rendezvous.
			over, err := c.Isend(1, 2, EagerLimit+1, 0, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if over.Test() {
				t.Error("EagerLimit+1 bytes must use the rendezvous path")
			}
			c.WaitAll(atLimit, over)
		case 1:
			c.Sleep(1e-4)
			if _, err := c.Recv(0, 1, EagerLimit, 0); err != nil {
				t.Error(err)
			}
			if _, err := c.Recv(0, 2, EagerLimit+1, 0); err != nil {
				t.Error(err)
			}
		}
	})
}

func TestSelfSend(t *testing.T) {
	// A rank may message itself (same machine fast path).
	sim, w := newWorld(t, 1, 1)
	run(t, sim, w, func(c *Ctx) {
		req, err := c.Isend(0, 5, units.KiB, 0, "self")
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Recv(0, 5, units.KiB, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.Payload != "self" {
			t.Error("self-message payload lost")
		}
		c.Wait(req)
	})
}

// BenchmarkSendRecv times point-to-point messages over the fabric: 4
// ranks on 4 henri machines, each sending 8 bytes to its right neighbour
// and receiving from its left, on a fresh world per iteration (the memory
// system is built once).
func BenchmarkSendRecv(b *testing.B) {
	sys := henriSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, w := worldOn(b, sys, 4, 1)
		w.Launch(func(c *Ctx) {
			right, left := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
			send, err := c.Isend(right, 0, 8, 0, nil)
			if err == nil {
				_, err = c.Recv(left, 0, 8, 0)
			}
			if err == nil {
				_, err = c.Wait(send)
			}
			if err != nil {
				b.Error(err)
			}
		})
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllreduce times an 8-byte Allreduce of 4 ranks on 4 henri
// machines, on a fresh world per iteration (the memory system is built
// once).
func BenchmarkAllreduce(b *testing.B) {
	sys := henriSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, w := worldOn(b, sys, 4, 1)
		w.Launch(func(c *Ctx) {
			if v, err := c.Allreduce(8, 0, float64(c.Rank()), Sum); err != nil || v != 6 {
				b.Errorf("rank %d: Allreduce gave %v, %v; want 6", c.Rank(), v, err)
			}
		})
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComputePhase times one steady-state compute phase: a rank
// computing on 8 cores of a henri machine, 1 MiB per core. The b.N
// phases run in one simulation after a warm-up phase, so an op is the
// batch start, its deferred re-solve, the completion and the wake-up,
// and allocates nothing.
func BenchmarkComputePhase(b *testing.B) {
	sim, w := worldOn(b, henriSystem(b), 1, 1)
	w.Launch(func(c *Ctx) {
		a := kernels.Assignment{
			Kernel: kernels.New(kernels.NTMemset),
			Cores:  []topology.CoreID(c.Machine().Topo.SocketSet(0).Take(8)),
			Node:   0,
		}
		for i := -1; i < b.N; i++ {
			if i == 0 {
				b.ReportAllocs()
				b.ResetTimer()
			}
			if _, err := c.Compute(a, units.MiB); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}
