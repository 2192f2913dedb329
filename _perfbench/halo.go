package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"

	"memcontention"
	"memcontention/internal/kernels"
	"memcontention/internal/memsys"
	"memcontention/internal/obs"
	"memcontention/internal/rng"
	"memcontention/internal/topology"
)

const (
	haloMachines = 4
	haloIters    = 8
	haloTag      = 1
)

// jobShape is one generated MPI job of the cluster-halo workload.
type jobShape struct {
	platform   string
	ranks      int // per machine, sharing socket 0's cores
	haloMiB    int
	comp, comm []topology.NodeID // per world rank
}

// String names the shape; the per-rank NUMA nodes enter as a hash.
func (s jobShape) String() string {
	h := fnv.New32a()
	fmt.Fprint(h, s.comp, s.comm)
	return fmt.Sprintf("%s %dx%d ranks %dMiB nodes=%08x", s.platform, haloMachines, s.ranks, s.haloMiB, h.Sum32())
}

// genShapes draws the job list of a seed: every (platform, ranks per
// machine) pair once, so each seed weighs the job sizes alike, with the
// halo size and every rank's NUMA nodes drawn from the seed, in a
// seed-shuffled order.
func genShapes(seed uint64) ([]jobShape, error) {
	r := rng.New(seed, "cluster-halo")
	var shapes []jobShape
	for _, plat := range topology.Testbed() {
		for ranks := 1; ranks <= 4; ranks++ {
			s := jobShape{platform: plat.Name, ranks: ranks, haloMiB: 4 + r.Intn(61)}
			if plat.CoresPerSocket()/ranks < 1 {
				return nil, fmt.Errorf("%s: %d ranks do not fit socket 0", plat.Name, ranks)
			}
			for i := 0; i < haloMachines*ranks; i++ {
				s.comp = append(s.comp, topology.NodeID(r.Intn(plat.NNodes())))
				s.comm = append(s.comm, topology.NodeID(r.Intn(plat.NNodes())))
			}
			shapes = append(shapes, s)
		}
	}
	for i := len(shapes) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		shapes[i], shapes[j] = shapes[j], shapes[i]
	}
	return shapes, nil
}

// clusterHalo runs one MPI job per op on a fresh 4-machine cluster: each
// rank does haloIters rounds of a ring halo exchange overlapped with a
// memory-bound kernel, then an 8-byte Allreduce.
type clusterHalo struct {
	shapes []jobShape
	pinned []jobPin

	reg *obs.Registry // attached in the traced run only
}

func (c *clusterHalo) workers() int    { return 1 }
func (c *clusterHalo) passLen() int    { return len(c.shapes) }
func (c *clusterHalo) tearDown()       {}
func (c *clusterHalo) endPhase() error { return nil }
func (c *clusterHalo) attach()         { c.reg = obs.NewRegistry() }

func (c *clusterHalo) setUp(seed uint64, tr *tracer) error {
	shapes, err := genShapes(seedClass(seed))
	if err != nil {
		return err
	}
	pins, err := loadPins()
	if err != nil {
		return err
	}
	c.shapes, c.pinned = shapes, pins.ClusterHalo[fmt.Sprint(seedClass(seed))]
	if len(c.pinned) != len(shapes) {
		return fmt.Errorf("cluster-halo: %d jobs pinned for seed class %d, want %d", len(c.pinned), seedClass(seed), len(shapes))
	}
	for i, s := range shapes {
		if c.pinned[i].Shape != s.String() {
			return fmt.Errorf("cluster-halo: job %d is %q, pinned %q", i, s, c.pinned[i].Shape)
		}
		if err := c.run(i, -1, tr); err != nil {
			return err
		}
	}
	return nil
}

func (c *clusterHalo) op(_ int, id int64, tr *tracer) error {
	return c.run(int(id%int64(len(c.shapes))), id, tr)
}

// run runs job i of the list as op id (-1 outside the timed phases).
func (c *clusterHalo) run(i int, id int64, tr *tracer) error {
	s, pin := c.shapes[i], c.pinned[i]
	root := tr.begin(id, 0, "op.cluster-halo", s.platform)
	defer tr.end(root)
	secs, err := runJob(s, c.reg, nil, id, root, tr)
	if err != nil {
		return err
	}
	if got := strconv.FormatFloat(secs, 'g', -1, 64); got != pin.SimSeconds {
		return fmt.Errorf("job %q: simulated %s s, pinned %s s", s, got, pin.SimSeconds)
	}
	return nil
}

// runJob builds the cluster and runs one job, returning its simulated
// seconds. reg and fc are attached when non-nil.
func runJob(s jobShape, reg *obs.Registry, fc *flowCapture, id int64, root int, tr *tracer) (float64, error) {
	var cl *memcontention.Cluster
	if err := tr.do(id, root, "memcontention.NewCluster", "", func() error {
		var err error
		cl, err = memcontention.NewCluster(s.platform, haloMachines)
		return err
	}); err != nil {
		return 0, err
	}
	if reg != nil {
		cl.WithRegistry(reg)
	}
	if fc != nil {
		cl.WithObserver(fc)
	}
	cores := cl.Platform().CoresOfSocket(0)
	per := len(cores) / s.ranks
	halo := memcontention.ByteSize(s.haloMiB) * memcontention.MiB
	kern := kernels.New(kernels.NTMemset)
	var mu sync.Mutex
	var errs []error
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	var secs float64
	err := tr.do(id, root, "memcontention.Cluster.Run", "", func() error {
		var err error
		secs, err = cl.Run(s.ranks, func(ctx *memcontention.RankCtx) {
			me, size := ctx.Rank(), ctx.Size()
			local := me % s.ranks
			right, left := (me+s.ranks)%size, (me-s.ranks+size)%size
			work := kernels.Assignment{Kernel: kern, Cores: cores[local*per : (local+1)*per], Node: s.comp[me]}
			want := float64(size*(size-1)) / 2
			for it := 0; it < haloIters; it++ {
				recv, err := ctx.Irecv(left, haloTag, halo, s.comm[me])
				if err != nil {
					fail(err)
					return
				}
				send, err := ctx.Isend(right, haloTag, halo, s.comm[me], nil)
				if err != nil {
					fail(err)
					return
				}
				if _, err := ctx.Compute(work, halo/4); err != nil {
					fail(err)
					return
				}
				if err := ctx.WaitAll(recv, send); err != nil {
					fail(err)
					return
				}
				sum, err := ctx.Allreduce(8, s.comm[me], float64(me), func(a, b float64) float64 { return a + b })
				if err != nil {
					fail(err)
					return
				}
				if sum != want {
					fail(fmt.Errorf("rank %d: Allreduce gave %v, want %v", me, sum, want))
					return
				}
			}
		})
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("job %q: %w", s, err)
	}
	if len(errs) > 0 {
		return 0, fmt.Errorf("job %q: %w", s, errors.Join(errs...))
	}
	return secs, nil
}

// flowCapture is the engine.FlowObserver of the traced run's capture
// pass: it tracks each machine's active streams so that every re-solve's
// stream set and applied rates can be replayed through memsys.Solve.
type flowCapture struct {
	active    map[[2]int]memsys.Stream // (machine, flow id)
	sets      []solveCase
	platforms []string // platform of each set
	platform  string
	// Comm flows of the current job: each fabric message moves its
	// bytes as a sender-side and a receiver-side flow.
	commFlows int
	commBytes float64
}

// messages reports the current job's fabric messages and their bytes.
func (f *flowCapture) messages() (int, int64) { return f.commFlows / 2, int64(f.commBytes / 2) }

// solveCase is one re-solve the engine made: the ID-sorted streams and
// the rate it applied to each.
type solveCase struct {
	streams []memsys.Stream
	rates   []float64
}

// begin resets the per-job counts for a job on platform.
func (f *flowCapture) begin(platform string) {
	f.platform = platform
	f.active = make(map[[2]int]memsys.Stream)
	f.commFlows, f.commBytes = 0, 0
}

func (f *flowCapture) FlowStarted(machine, id int, st memsys.Stream, bytes float64, _ float64) {
	f.active[[2]int{machine, id}] = st
	if st.Kind == memsys.KindComm {
		f.commFlows++
		f.commBytes += bytes
	}
}

func (f *flowCapture) FlowFinished(machine, id int, _ float64, _ float64) {
	delete(f.active, [2]int{machine, id})
}

func (f *flowCapture) RatesResolved(machine int, _ float64, rates map[int]float64) {
	var sc solveCase
	for key, st := range f.active {
		if key[0] == machine {
			sc.streams = append(sc.streams, st)
		}
	}
	sort.Slice(sc.streams, func(i, j int) bool { return sc.streams[i].ID < sc.streams[j].ID })
	for _, st := range sc.streams {
		sc.rates = append(sc.rates, rates[st.ID])
	}
	f.sets = append(f.sets, sc)
	f.platforms = append(f.platforms, f.platform)
}

func (c *clusterHalo) layers(m *layerSet, ph phases, spans []span) error {
	ops := float64(ph.traced.ops)
	events := counterSum(c.reg, "memcontention_engine_events_fired_total") / ops
	resolves := counterSum(c.reg, "memcontention_engine_rate_resolves_total") / ops
	m.set("engine.events_per_op", events)
	m.set("engine.resolves_per_op", resolves)
	m.set("engine.procs_per_op", counterSum(c.reg, "memcontention_engine_procs_spawned_total")/ops)
	m.set("memsys.solve_calls_per_op", resolves)
	m.setRatio("memsys.streams_per_solve", ratio{
		num:  counterSum(c.reg, "memcontention_engine_solver_streams_total") / ops,
		base: resolves,
	})

	fc, pass, err := c.capturePass()
	if err != nil {
		return err
	}
	n := float64(len(c.shapes))
	m.set("mpi.messages_per_op", float64(pass.messages)/n)
	m.set("mpi.bytes_per_op", float64(pass.bytes)/n/float64(memcontention.MiB))
	m.set("sim.job_seconds", pass.simSeconds/n)

	solveSec, allocs, err := replaySolves(fc)
	if err != nil {
		return err
	}
	calls := float64(len(fc.sets))
	m.set("memsys.solve_us", solveSec/calls*1e6)
	m.set("memsys.solve_allocs", allocs/calls)
	nonSolve := ph.untraced.lat.mean()*1e6 - resolves*m.get("memsys.solve_us")
	m.set("engine.non_solve_us_per_event", nonSolve/events)
	m.note(fmt.Sprintf("  replayed the %d re-solves of one pass; every rate matched the engine's bit for bit", len(fc.sets)))
	return nil
}

// passTotals sums a capture pass over the job list.
type passTotals struct {
	simSeconds float64
	messages   int
	bytes      int64
}

// capturePass runs every job once more with a flow observer, checking
// each job's fabric messages and bytes against the pins.
func (c *clusterHalo) capturePass() (*flowCapture, passTotals, error) {
	fc := &flowCapture{}
	var t passTotals
	for i, s := range c.shapes {
		fc.begin(s.platform)
		secs, err := runJob(s, nil, fc, -1, 0, nil)
		if err != nil {
			return nil, t, err
		}
		pin := c.pinned[i]
		if got := strconv.FormatFloat(secs, 'g', -1, 64); got != pin.SimSeconds {
			return nil, t, fmt.Errorf("job %q with a flow observer: simulated %s s, pinned %s s", s, got, pin.SimSeconds)
		}
		msgs, bytes := fc.messages()
		if msgs != pin.Messages || bytes != pin.Bytes {
			return nil, t, fmt.Errorf("job %q: %d messages, %d bytes over the fabric, pinned %d and %d", s, msgs, bytes, pin.Messages, pin.Bytes)
		}
		t.simSeconds += secs
		t.messages += msgs
		t.bytes += bytes
	}
	return fc, t, nil
}

// replaySolves solves every captured stream set again, checks the rates
// are exactly those the engine applied, and times the solves.
func replaySolves(fc *flowCapture) (secs, allocs float64, err error) {
	systems := make(map[string]*memsys.System)
	for _, name := range fc.platforms {
		if systems[name] != nil {
			continue
		}
		plat, err := topology.ByName(name)
		if err != nil {
			return 0, 0, err
		}
		prof, err := memsys.ProfileFor(name)
		if err != nil {
			return 0, 0, err
		}
		if systems[name], err = memsys.New(plat, prof); err != nil {
			return 0, 0, err
		}
	}
	for i, sc := range fc.sets {
		alloc, err := systems[fc.platforms[i]].Solve(sc.streams)
		if err != nil {
			return 0, 0, err
		}
		for j, st := range sc.streams {
			if got := alloc.Rate(st.ID); got != sc.rates[j] {
				return 0, 0, fmt.Errorf("cluster-halo: replayed Solve %d gives stream %d %v GB/s, the engine applied %v", i, st.ID, got, sc.rates[j])
			}
		}
	}
	solveAll := func() error {
		for i, sc := range fc.sets {
			if _, err := systems[fc.platforms[i]].Solve(sc.streams); err != nil {
				return err
			}
		}
		return nil
	}
	a0 := heapAllocs()
	if err := solveAll(); err != nil {
		return 0, 0, err
	}
	allocs = heapAllocs() - a0
	secs, err = timeMedian(solveAll)
	return secs, allocs, err
}
