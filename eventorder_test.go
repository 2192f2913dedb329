package memcontention

import (
	"bufio"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"memcontention/internal/kernels"
	"memcontention/internal/obs"
	"memcontention/internal/rng"
	"memcontention/internal/topology"
	"memcontention/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/event-order.txt from the current engine")

// eventOrderFile holds one "job digest" line per job of orderJobs.
const eventOrderFile = "testdata/event-order.txt"

const (
	orderMachines = 4
	orderIters    = 3
)

// orderJob is one cluster-halo-shaped MPI job: orderMachines machines of
// one platform, ranks per machine sharing socket 0's cores, each rank
// computing on and communicating from its own seeded NUMA nodes, odd ranks
// adding an empty compute phase, and an optional fault plan.
type orderJob struct {
	name       string
	platform   string
	ranks      int
	halo       ByteSize
	comp, comm []topology.NodeID
	plan       *FaultPlan
}

// orderPlan throttles one machine's cores, stalls another's NIC and slows
// the fabric, so that limiter changes and mid-flight re-solves (Refresh)
// land among the job's own events.
func orderPlan() *FaultPlan {
	return &FaultPlan{Seed: 5, Events: []FaultEvent{
		{At: 0.0005, Kind: "link-degrade", Factor: 0.5, Duration: 0.004},
		{At: 0.001, Kind: "core-slowdown", Machine: 1, Factor: 0.25, Duration: 0.003},
		{At: 0.002, Kind: "nic-stall", Machine: 2, Duration: 0.0015},
	}}
}

// orderJobs draws the jobs: for seeds 1 and 2 every (platform, 1–4 ranks
// per machine) pair, with the halo size and every rank's nodes drawn from
// the seed; for seed 3 the same under orderPlan.
func orderJobs() []orderJob {
	var jobs []orderJob
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed, "event-order")
		for _, plat := range topology.Testbed() {
			for ranks := 1; ranks <= 4; ranks++ {
				j := orderJob{platform: plat.Name, ranks: ranks, halo: ByteSize(1+r.Intn(16)) * MiB}
				for i := 0; i < orderMachines*ranks; i++ {
					j.comp = append(j.comp, topology.NodeID(r.Intn(plat.NNodes())))
					j.comm = append(j.comm, topology.NodeID(r.Intn(plat.NNodes())))
				}
				if seed == 3 {
					j.plan = orderPlan()
				}
				j.name = fmt.Sprintf("seed%d/%s/%dx%d/%dMiB", seed, plat.Name, orderMachines, ranks, j.halo/MiB)
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
}

// run runs the job with a span-recording trace and returns the recorded
// events and the number of events the scheduler fired.
func (j orderJob) run() ([]trace.Event, float64, error) {
	c, err := NewCluster(j.platform, orderMachines)
	if err != nil {
		return nil, 0, err
	}
	reg, rec := obs.NewRegistry(), trace.NewRecorder()
	c.WithRegistry(reg).WithObserver(rec)
	if j.plan != nil {
		c.WithFaults(j.plan).WithResilience(Resilience{OpTimeout: 1})
	}
	cores := c.Platform().CoresOfSocket(0)
	per := len(cores) / j.ranks
	kern := kernels.New(kernels.NTMemset)
	errs := make([]error, orderMachines*j.ranks)
	_, err = c.Run(j.ranks, func(ctx *RankCtx) {
		me, size := ctx.Rank(), ctx.Size()
		local := me % j.ranks
		right, left := (me+j.ranks)%size, (me-j.ranks+size)%size
		work := kernels.Assignment{Kernel: kern, Cores: cores[local*per : (local+1)*per], Node: j.comp[me]}
		for it := 0; it < orderIters && errs[me] == nil; it++ {
			// An empty compute phase on odd ranks: its zero-byte flows
			// complete at the instant they start, in the slot their
			// start reserved among that instant's events.
			if me%2 == 1 {
				if _, err := ctx.Compute(work, 0); err != nil {
					errs[me] = err
					return
				}
			}
			recv, err := ctx.Irecv(left, 1, j.halo, j.comm[me])
			if err != nil {
				errs[me] = err
				return
			}
			send, err := ctx.Isend(right, 1, j.halo, j.comm[me], nil)
			if err != nil {
				errs[me] = err
				return
			}
			if _, err := ctx.Compute(work, j.halo/4); err != nil {
				errs[me] = err
				return
			}
			if err := ctx.WaitAll(recv, send); err != nil {
				errs[me] = err
				return
			}
			if _, err := ctx.Allreduce(8, j.comm[me], float64(me), func(a, b float64) float64 { return a + b }); err != nil {
				errs[me] = err
			}
		}
	})
	for _, e := range errs {
		if e != nil && err == nil {
			err = e
		}
	}
	fired := reg.Counter("memcontention_engine_events_fired_total", "", nil).Value()
	return rec.Events(), fired, err
}

// eventOrderDigest hashes a job's trace with its rate changes normalized:
// every other event in recording order, then the last rate change of each
// (machine, instant), in instant and machine order, then the number of
// events fired. It pins what a simulation does and the rates that move
// bytes, but not how often a machine re-solved within one instant.
func eventOrderDigest(events []trace.Event, fired float64) (string, error) {
	type instant struct {
		at      float64
		machine int
	}
	last := make(map[instant]trace.Event)
	var kept []trace.Event
	var instants []instant
	for _, ev := range events {
		if ev.Kind != trace.RateChange {
			kept = append(kept, ev)
			continue
		}
		k := instant{ev.At, ev.Machine}
		if _, seen := last[k]; !seen {
			instants = append(instants, k)
		}
		last[k] = ev
	}
	slices.SortFunc(instants, func(a, b instant) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.machine, b.machine))
	})
	for _, k := range instants {
		kept = append(kept, last[k])
	}
	h := sha256.New()
	if err := trace.WriteEventsJSONL(h, kept); err != nil {
		return "", err
	}
	fmt.Fprintf(h, "fired %g\n", fired)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TestEventOrderDigests: the normalized trace of every orderJobs job
// matches the digest recorded in testdata/event-order.txt. The digests
// were recorded by an engine that re-solved a machine's rates at every
// start and completion, so a match shows that re-solving once per
// machine per instant fires every event at the same time, in the same
// order, and leaves every machine with the same rates at each instant.
func TestEventOrderDigests(t *testing.T) {
	jobs := orderJobs()
	got := make([]string, len(jobs))
	for i, j := range jobs {
		events, fired, err := j.run()
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		if got[i], err = eventOrderDigest(events, fired); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		var b strings.Builder
		for i, j := range jobs {
			fmt.Fprintf(&b, "%s %s\n", j.name, got[i])
		}
		if err := os.WriteFile(eventOrderFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(eventOrderFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", eventOrderFile, sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(jobs) {
		t.Errorf("%s holds %d digests, want one per job (%d)", eventOrderFile, len(want), len(jobs))
	}
	for i, j := range jobs {
		if w, ok := want[j.name]; !ok {
			t.Errorf("%s: no recorded digest", j.name)
		} else if got[i] != w {
			t.Errorf("%s: normalized trace digest %s, recorded %s", j.name, got[i], w)
		}
	}
}
