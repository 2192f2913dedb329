package engine

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"memcontention/internal/bench"
	"memcontention/internal/kernels"
	"memcontention/internal/memsys"
	"memcontention/internal/obs"
	"memcontention/internal/rng"
	"memcontention/internal/topology"
	"memcontention/internal/units"
)

func newFlowsSim(t *testing.T) (*Sim, *Flows, *memsys.System) {
	t.Helper()
	prof, err := memsys.ProfileFor("henri")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := memsys.New(topology.Henri(), prof)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim()
	return sim, NewFlows(sim, sys), sys
}

func TestSingleTransferTiming(t *testing.T) {
	sim, flows, sys := newFlowsSim(t)
	var at float64
	var avg units.Bandwidth
	sim.Spawn("recv", func(p *Proc) {
		at, avg = flows.TransferAndWait(p, memsys.Stream{Kind: memsys.KindComm, Node: 0}, 64*units.MiB)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	nominal := sys.Profile().NominalComm(0)
	wantT := float64(64*units.MiB) / (nominal * units.BytesPerGB)
	if math.Abs(at-wantT) > 1e-9 {
		t.Errorf("completion at %v, want %v", at, wantT)
	}
	if math.Abs(avg.GBps()-nominal) > 1e-6 {
		t.Errorf("avg rate %v, want %v", avg.GBps(), nominal)
	}
}

func TestConcurrentFlowsShareAndFinish(t *testing.T) {
	// Two equal compute streams to the same node finish together; their
	// rates match the steady-state solver.
	sim, flows, sys := newFlowsSim(t)
	var done []float64
	sim.Spawn("main", func(p *Proc) {
		h1 := flows.Start(memsys.Stream{Kind: memsys.KindCompute, Core: 0, Node: 0, Demand: 5}, units.GiB)
		h2 := flows.Start(memsys.Stream{Kind: memsys.KindCompute, Core: 1, Node: 0, Demand: 5}, units.GiB)
		h1.Wait(p)
		done = append(done, p.Sim().Now())
		h2.Wait(p)
		done = append(done, p.Sim().Now())
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || math.Abs(done[0]-done[1]) > 1e-12 {
		t.Errorf("equal flows must finish together: %v", done)
	}
	_ = sys
}

func TestRateResolveOnDeparture(t *testing.T) {
	// A small flow and a big flow on a constrained resource: when the
	// small one finishes, the big one must speed up, so its completion
	// is earlier than a fixed-rate estimate.
	prof, err := memsys.ProfileFor("henri")
	if err != nil {
		t.Fatal(err)
	}
	// Make the controller tiny so two comm streams contend: PCIe 12.
	prof.PCIeCap = 12
	sys, err := memsys.New(topology.Henri(), prof)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim()
	flows := NewFlows(sim, sys)

	var bigDone float64
	sim.Spawn("main", func(p *Proc) {
		small := flows.Start(memsys.Stream{Kind: memsys.KindComm, Node: 0}, 32*units.MiB)
		big := flows.Start(memsys.Stream{Kind: memsys.KindComm, Node: 1}, 256*units.MiB)
		small.Wait(p)
		big.Wait(p)
		bigDone = p.Sim().Now()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Shared phase: PCIe 12 GB/s is split proportionally to the nominal
	// demands (10.9 for node 0, 11.3 for node 1). When the small flow
	// drains, the big one speeds up to its nominal 11.3 GB/s.
	smallRate := 12 * 10.9 / (10.9 + 11.3)
	bigRate := 12 * 11.3 / (10.9 + 11.3)
	sharedEnd := float64(32*units.MiB) / (smallRate * units.BytesPerGB)
	bigMoved := bigRate * units.BytesPerGB * sharedEnd
	rest := (float64(256*units.MiB) - bigMoved) / (11.3 * units.BytesPerGB)
	want := sharedEnd + rest
	if math.Abs(bigDone-want) > 1e-6 {
		t.Errorf("big flow done at %v, want %v (rate re-solve on departure)", bigDone, want)
	}
}

func TestFlowsMatchSteadyStateSolver(t *testing.T) {
	// DES cross-check (DESIGN.md E-series validation): instantaneous
	// rates of long-lived flows must equal the steady-state solution.
	sim, flows, sys := newFlowsSim(t)
	n := 14
	var handles []*Handle
	cores := sys.Platform().CoresOfSocket(0)
	var streams []memsys.Stream
	for i := 0; i < n; i++ {
		st := memsys.Stream{ID: i, Kind: memsys.KindCompute, Core: cores[i], Node: 0, Demand: 5}
		streams = append(streams, st)
	}
	comm := memsys.Stream{ID: 1000, Kind: memsys.KindComm, Node: 0}
	streams = append(streams, comm)

	want, err := sys.Solve(streams)
	if err != nil {
		t.Fatal(err)
	}

	sim.Spawn("main", func(p *Proc) {
		for _, st := range streams {
			handles = append(handles, flows.Start(st, units.GiB))
		}
		p.Sleep(1e-3) // mid-transfer probe
		for i, h := range handles {
			got := h.CurrentRate().GBps()
			id := streams[i].ID
			// Flow IDs are assigned by the manager; compare by
			// aggregate position: compute streams share one rate.
			var expect float64
			if streams[i].Kind == memsys.KindComm {
				expect = want.CommTotal
			} else {
				expect = want.ComputeTotal / float64(n)
			}
			if math.Abs(got-expect) > 1e-6 {
				t.Errorf("stream %d: DES rate %v, steady-state %v", id, got, expect)
			}
		}
		for _, h := range handles {
			h.Wait(p)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// rateProbe is a FlowObserver keeping the applied rates of the last
// re-solve.
type rateProbe struct{ last map[int]float64 }

func (r *rateProbe) FlowStarted(int, int, memsys.Stream, float64, float64) {}
func (r *rateProbe) FlowFinished(int, int, float64, float64)               {}
func (r *rateProbe) RatesResolved(_ int, _ float64, rates map[int]float64) { r.last = rates }

// TestFlowsMatchSolveBitForBit is the differential check of the DES
// against the steady-state solver. On every built-in platform, for every
// placement and n ∈ {1, half, all} cores of socket 0 plus one comm
// stream, long transfers started at t = 0 must run at exactly — bit for
// bit — the rates memsys.Solve grants the same streams.
func TestFlowsMatchSolveBitForBit(t *testing.T) {
	kern := kernels.New(kernels.NTMemset)
	for _, plat := range topology.Testbed() {
		hw, err := memsys.ProfileFor(plat.Name)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := memsys.New(plat, hw)
		if err != nil {
			t.Fatal(err)
		}
		cores := plat.CoresOfSocket(0)
		for _, pl := range bench.AllPlacements(plat) {
			for _, n := range []int{1, len(cores) / 2, len(cores)} {
				// Flow ids are handed out from 1 in start order, so
				// these are the ids the flow manager gives the streams.
				streams, err := kernels.Assignment{Kernel: kern, Cores: cores[:n], Node: pl.Comp}.Streams(sys, 1)
				if err != nil {
					t.Fatal(err)
				}
				streams = append(streams, memsys.Stream{ID: n + 1, Kind: memsys.KindComm, Node: pl.Comm})
				want, err := sys.Solve(streams)
				if err != nil {
					t.Fatal(err)
				}
				flows := NewFlows(NewSim(), sys)
				probe := &rateProbe{}
				flows.SetObserver(probe)
				for _, st := range streams {
					flows.Start(st, units.GiB)
				}
				if len(probe.last) != len(streams) {
					t.Fatalf("%s %v n=%d: last re-solve covered %d flows, want %d", plat.Name, pl, n, len(probe.last), len(streams))
				}
				for _, st := range streams {
					got, exp := probe.last[st.ID], want.Rate(st.ID)
					if math.Float64bits(got) != math.Float64bits(exp) {
						t.Errorf("%s %v n=%d: %s stream %d runs at %v GB/s, Solve grants %v",
							plat.Name, pl, n, st.Kind, st.ID, got, exp)
					}
				}
			}
		}
	}
}

// randomBatch draws 1 to 16 streams on distinct cores of sys's platform:
// compute streams at up to 1.5 times their kernel demand on a random
// node, and one in four a comm stream at its NIC's nominal rate.
func randomBatch(r *rng.Stream, sys *memsys.System) []memsys.Stream {
	cores := slices.Clone(sys.Platform().Cores)
	for i := len(cores) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		cores[i], cores[j] = cores[j], cores[i]
	}
	batch := make([]memsys.Stream, 1+r.Intn(min(16, len(cores))))
	for i := range batch {
		node := topology.NodeID(r.Intn(sys.Platform().NNodes()))
		if r.Intn(4) == 0 {
			batch[i] = memsys.Stream{Kind: memsys.KindComm, Node: node}
			continue
		}
		core := cores[i].ID
		demand := sys.ComputeDemand(core, node) * (0.5 + r.Float64())
		batch[i] = memsys.Stream{Kind: memsys.KindCompute, Core: core, Node: node, Demand: demand}
	}
	return batch
}

// TestStartAllMatchesStarts: a batch started with StartAll runs exactly —
// bit for bit — as the same streams started by one Start each: the same
// completion times, average rates and last applied rates, for the batch
// and for a flow already in flight when it joins. Random batches on every
// built-in platform.
func TestStartAllMatchesStarts(t *testing.T) {
	for _, plat := range topology.Testbed() {
		hw, err := memsys.ProfileFor(plat.Name)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := memsys.New(plat, hw)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(1, "startall/"+plat.Name)
		for trial := 0; trial < 16; trial++ {
			batch := randomBatch(r, sys)
			size := units.ByteSize(1+r.Intn(64)) * units.MiB
			run := func(batched bool) []*Handle {
				sim := NewSim()
				flows := NewFlows(sim, sys)
				hs := []*Handle{flows.Start(memsys.Stream{Kind: memsys.KindComm, Node: 0}, 32*units.MiB)}
				sim.At(1e-3, func() {
					if batched {
						hs = append(hs, flows.StartAll(batch, size, 0)...)
						return
					}
					for _, st := range batch {
						hs = append(hs, flows.Start(st, size))
					}
				})
				if err := sim.Run(); err != nil {
					t.Fatal(err)
				}
				return hs
			}
			one, all := run(false), run(true)
			for i := range one {
				a, b := one[i], all[i]
				if !a.Done() || !b.Done() {
					t.Fatalf("%s trial %d: flow %d did not finish", plat.Name, trial, i)
				}
				for _, v := range [][2]float64{
					{a.CompletedAt(), b.CompletedAt()},
					{a.AvgRate().GBps(), b.AvgRate().GBps()},
					{a.CurrentRate().GBps(), b.CurrentRate().GBps()},
				} {
					if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
						t.Errorf("%s trial %d flow %d: one Start each gives %v, StartAll %v", plat.Name, trial, i, v[0], v[1])
					}
				}
			}
		}
	}
}

// TestThenRunsInWaiterSlot: a completion runs Then callbacks in the event
// slots where it wakes waiting processes, in registration order; on a
// finished transfer Then schedules fn at the current time, after events
// already due then.
func TestThenRunsInWaiterSlot(t *testing.T) {
	sim, flows, _ := newFlowsSim(t)
	var log []string
	note := func(s string) func() { return func() { log = append(log, s) } }
	var h *Handle
	sim.Spawn("a", func(p *Proc) {
		h = flows.Start(memsys.Stream{Kind: memsys.KindComm, Node: 0}, units.MiB)
		h.Then(note("then-1"))
		h.Wait(p)
		note("a")()
		sim.At(sim.Now(), note("at"))
		h.Then(note("then-3"))
	})
	sim.Spawn("b", func(p *Proc) {
		h.Then(note("then-2"))
		h.Wait(p)
		note("b")()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"then-1", "a", "then-2", "b", "at", "then-3"}; !slices.Equal(log, want) {
		t.Errorf("completion ran %v, want %v", log, want)
	}
}

// finishProbe records each FlowFinished id with the active-flows gauge at
// that moment, and for each re-solve the ids RatesResolved reports and
// the manager's active flow ids, in the order it holds them.
type finishProbe struct {
	flows    *Flows
	gauge    *obs.Gauge
	finished []int
	steps    []float64
	rated    [][]int
	active   [][]int
}

func (r *finishProbe) FlowStarted(int, int, memsys.Stream, float64, float64) {}
func (r *finishProbe) FlowFinished(_, id int, _, _ float64) {
	r.finished = append(r.finished, id)
	r.steps = append(r.steps, r.gauge.Value())
}
func (r *finishProbe) RatesResolved(_ int, _ float64, rates map[int]float64) {
	var rated, active []int
	for id := range rates {
		rated = append(rated, id)
	}
	slices.Sort(rated)
	for _, fl := range r.flows.active {
		active = append(active, fl.id)
	}
	r.rated = append(r.rated, rated)
	r.active = append(r.active, active)
}

// TestSimultaneousCompletionsInIDOrder: five equal compute flows start
// together; flows 2 and 4 are short and finish first, then flows 1, 3
// and 5 finish in one event. Completions come in ascending id order, the
// active-flows gauge steps down once per flow, and the flows that remain
// keep ascending order in the next re-solve.
func TestSimultaneousCompletionsInIDOrder(t *testing.T) {
	sim, flows, sys := newFlowsSim(t)
	reg := obs.NewRegistry()
	flows.SetRegistry(reg)
	probe := &finishProbe{flows: flows, gauge: reg.Gauge("memcontention_engine_active_flows", "", nil)}
	flows.SetObserver(probe)
	cores := sys.Platform().CoresOfSocket(0)
	sim.Spawn("main", func(p *Proc) {
		var hs []*Handle
		for i := 1; i <= 5; i++ {
			size := 4 * units.MiB
			if i%2 == 0 {
				size = units.MiB
			}
			hs = append(hs, flows.Start(memsys.Stream{Kind: memsys.KindCompute, Core: cores[i], Node: 0, Demand: 5}, size))
		}
		for _, h := range hs {
			h.Wait(p)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 4, 1, 3, 5}; !slices.Equal(probe.finished, want) {
		t.Errorf("flows finished in order %v, want %v", probe.finished, want)
	}
	if want := []float64{4, 3, 2, 1, 0}; !slices.Equal(probe.steps, want) {
		t.Errorf("active-flows gauge stepped %v, want %v", probe.steps, want)
	}
	if n := len(probe.rated); n != 6 || !slices.Equal(probe.rated[n-1], []int{1, 3, 5}) {
		t.Errorf("re-solves rated %v, want five starts then [1 3 5]", probe.rated)
	}
	for i, ids := range probe.active {
		if !slices.Equal(ids, probe.rated[i]) {
			t.Errorf("re-solve %d: active flows held as %v, want ascending %v", i, ids, probe.rated[i])
		}
	}
}

// TestFlowsResolveAllocs: with no observer, a re-solve allocates
// nothing: it re-queues the flow manager's one completion event in place,
// so the event heap never holds more than that event.
func TestFlowsResolveAllocs(t *testing.T) {
	sim, flows, sys := newFlowsSim(t)
	for _, core := range sys.Platform().CoresOfSocket(0)[:8] {
		flows.Start(memsys.Stream{Kind: memsys.KindCompute, Core: core, Node: 0}, units.GiB)
	}
	flows.Start(memsys.Stream{Kind: memsys.KindComm, Node: 0}, units.GiB)
	if got := testing.AllocsPerRun(100, flows.Refresh); got != 0 {
		t.Errorf("a re-solve allocates %v, want 0", got)
	}
	if n := sim.events.Len(); n != 1 {
		t.Errorf("event heap holds %d events after the re-solves, want the one completion", n)
	}
}

// TestSolveErrorFailsRun: a stream the solver rejects (henri has no NUMA
// node 9) fails the run with the solver's error wrapped, whether the
// transfer starts in scheduler or in process context — never a panic.
func TestSolveErrorFailsRun(t *testing.T) {
	bad := memsys.Stream{Kind: memsys.KindComm, Node: 9}
	for _, tc := range []struct {
		name  string
		start func(*Sim, *Flows)
	}{
		{"scheduler", func(sim *Sim, flows *Flows) {
			sim.At(0, func() { flows.Start(bad, units.MiB) })
		}},
		{"process", func(sim *Sim, flows *Flows) {
			sim.Spawn("p", func(*Proc) { flows.Start(bad, units.MiB) })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, flows, sys := newFlowsSim(t)
			first := bad
			first.ID = 1 // the id Start hands the first flow
			_, solveErr := sys.Solve([]memsys.Stream{first})
			if solveErr == nil {
				t.Fatal("solver accepted a stream on henri's node 9")
			}
			tc.start(sim, flows)
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Run panicked: %v", r)
					}
				}()
				err = sim.Run()
			}()
			if err == nil {
				t.Fatal("Run succeeded despite the solver error")
			}
			wrapped := false
			for e := err; e != nil; e = errors.Unwrap(e) {
				wrapped = wrapped || e.Error() == solveErr.Error()
			}
			if !wrapped || strings.Contains(err.Error(), "panicked") {
				t.Errorf("Run error %q does not wrap the solver's %q", err, solveErr)
			}
		})
	}
}

func TestHandleAccessors(t *testing.T) {
	sim, flows, _ := newFlowsSim(t)
	var h *Handle
	sim.Spawn("main", func(p *Proc) {
		h = flows.Start(memsys.Stream{Kind: memsys.KindComm, Node: 0}, units.MiB)
		if h.Done() {
			t.Error("fresh transfer must not be done")
		}
		if h.CompletedAt() != 0 || h.AvgRate() != 0 {
			t.Error("unfinished transfer must report zero completion stats")
		}
		h.Wait(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !h.Done() || h.CompletedAt() <= 0 || h.AvgRate() <= 0 {
		t.Error("finished transfer must report completion stats")
	}
	if flows.ActiveCount() != 0 {
		t.Error("no flows must remain active")
	}
}

func TestZeroByteTransfer(t *testing.T) {
	sim, flows, _ := newFlowsSim(t)
	completed := false
	sim.Spawn("main", func(p *Proc) {
		h := flows.Start(memsys.Stream{Kind: memsys.KindComm, Node: 0}, 0)
		h.Wait(p)
		completed = true
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Error("zero-byte transfer must complete immediately")
	}
}

func TestManySmallFlowsDrain(t *testing.T) {
	sim, flows, sys := newFlowsSim(t)
	cores := sys.Platform().CoresOfSocket(0)
	count := 0
	sim.Spawn("main", func(p *Proc) {
		var hs []*Handle
		for i := 0; i < len(cores); i++ {
			hs = append(hs, flows.Start(memsys.Stream{
				Kind: memsys.KindCompute, Core: cores[i], Node: 0, Demand: 5,
			}, units.ByteSize(i+1)*units.MiB))
		}
		for _, h := range hs {
			h.Wait(p)
			count++
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if count != len(cores) {
		t.Errorf("drained %d flows, want %d", count, len(cores))
	}
}

// BenchmarkFlowsChurn times the re-solve loop alone, without process
// switches: one henri System built outside the timed loop, and 16
// overlapping flows with staggered sizes started at t = 0, so that every
// start and every finish re-solves the active set.
func BenchmarkFlowsChurn(b *testing.B) {
	prof, err := memsys.ProfileFor("henri")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := memsys.New(topology.Henri(), prof)
	if err != nil {
		b.Fatal(err)
	}
	cores := sys.Platform().CoresOfSocket(0)
	streams := make([]memsys.Stream, 16)
	for i := range streams {
		streams[i] = memsys.Stream{Kind: memsys.KindCompute, Core: cores[i], Node: topology.NodeID(i % 2)}
		if i%4 == 3 {
			streams[i] = memsys.Stream{Kind: memsys.KindComm, Node: topology.NodeID(i % 2)}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := NewSim()
		flows := NewFlows(sim, sys)
		for k, st := range streams {
			flows.Start(st, units.ByteSize(k+1)*units.MiB)
		}
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
