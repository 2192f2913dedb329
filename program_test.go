package memcontention

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"memcontention/internal/faults"
	"memcontention/internal/kernels"
	"memcontention/internal/memsys"
	"memcontention/internal/obs"
	"memcontention/internal/prof"
	"memcontention/internal/topology"
	"memcontention/internal/trace"
	"memcontention/internal/units"
)

// programCorpus is FuzzClusterProgram's seed corpus, which plain `go test`
// replays; programDigestFile holds one "file digest" line per corpus file.
const (
	programCorpus     = "testdata/fuzz/FuzzClusterProgram"
	programDigestFile = "testdata/cluster-programs.txt"
)

// programSizes are the message sizes a program draws from: both sides of
// mpi.EagerLimit (32 KiB, which is still eager) and a few fabric-sized
// messages.
var programSizes = []ByteSize{1, 100, 4 * KiB, 32 * KiB, 32*KiB + 1, 256 * KiB, MiB, 3 * MiB}

// programComputeBytes are the per-core sizes of a compute phase; 0 is an
// empty phase, whose flows complete at the instant they start.
var programComputeBytes = []ByteSize{0, 64 * KiB, MiB, 4 * MiB}

// programFaultKinds are the fault kinds a program's plan draws from.
var programFaultKinds = []faults.Kind{
	faults.LinkDegrade, faults.LinkLatency, faults.NICStall, faults.CoreSlowdown,
	faults.NodeCrash, faults.MsgDrop, faults.MsgDelay,
}

// programMsg is one point-to-point message of a round. A wild receive is
// posted as (AnySource, AnyTag).
type programMsg struct {
	src, dst, tag    int
	size             ByteSize
	srcNode, dstNode topology.NodeID
	wild             bool
}

// programCompute is one rank's compute phase in a round.
type programCompute struct {
	cores []topology.CoreID
	node  topology.NodeID
	bytes ByteSize
}

// programRound is one round: every message posted, every rank's compute
// phase, a wait for all of the rank's requests, a barrier, and optionally
// an Allreduce.
type programRound struct {
	msgs      []programMsg
	compute   []programCompute // by world rank
	allreduce bool
}

// clusterProgram is a small MPI program decoded from fuzz input.
type clusterProgram struct {
	platform        string
	machines, ranks int // ranks per machine
	rounds          []programRound
	plan            *FaultPlan
	res             Resilience
}

// programInput hands out the fuzz input one byte at a time, and zeros
// once it is used up, so every input decodes to a program.
type programInput []byte

// next returns the next byte modulo n.
func (in *programInput) next(n int) int {
	if len(*in) == 0 {
		return 0
	}
	v := int((*in)[0])
	*in = (*in)[1:]
	return v % n
}

// decodeProgram builds the program data describes. The program cannot
// deadlock without faults: every rank posts its receives before its
// sends, each receive names its message's source and tag unless it is
// wild, the wild ones are posted after all the named ones so that a
// named receive never loses its message to a wild one, and a barrier
// closes every round, so a wild receive only ever matches a message of
// its own round.
func decodeProgram(data []byte) clusterProgram {
	in := programInput(data)
	plats := topology.Testbed()
	plat := plats[in.next(len(plats))]
	p := clusterProgram{platform: plat.Name, machines: 2 + in.next(3)}
	p.ranks = 1 + in.next(8/p.machines)
	world, nodes := p.machines*p.ranks, plat.NNodes()
	// Each rank of a machine computes on cores of its own share.
	share := plat.NCores() / p.ranks
	for r := 1 + in.next(3); r > 0; r-- {
		var round programRound
		for m := in.next(2*world + 1); m > 0; m-- {
			round.msgs = append(round.msgs, programMsg{
				src: in.next(world), dst: in.next(world), tag: in.next(4),
				size:    programSizes[in.next(len(programSizes))],
				srcNode: topology.NodeID(in.next(nodes)), dstNode: topology.NodeID(in.next(nodes)),
				wild: in.next(4) == 0,
			})
		}
		for rank := 0; rank < world; rank++ {
			local := rank % p.ranks
			first, n := in.next(share), 1+in.next(4)
			var cores []topology.CoreID
			for i := 0; i < n && first+i < share; i++ {
				cores = append(cores, topology.CoreID(local*share+first+i))
			}
			round.compute = append(round.compute, programCompute{
				cores: cores,
				node:  topology.NodeID(in.next(nodes)),
				bytes: programComputeBytes[in.next(len(programComputeBytes))],
			})
		}
		round.allreduce = in.next(2) == 1
		p.rounds = append(p.rounds, round)
	}
	if in.next(2) == 1 {
		p.plan = &FaultPlan{Seed: uint64(in.next(256))}
		for e := 1 + in.next(3); e > 0; e-- {
			ev := FaultEvent{
				At:       float64(in.next(40)) * 25e-6,
				Kind:     programFaultKinds[in.next(len(programFaultKinds))],
				Machine:  in.next(p.machines),
				Duration: float64(in.next(40)) * 50e-6,
			}
			switch ev.Kind {
			case faults.LinkDegrade, faults.CoreSlowdown:
				ev.Factor = float64(1+in.next(10)) / 10
			case faults.LinkLatency:
				ev.Extra, ev.Jitter = float64(1+in.next(10))*10e-6, float64(in.next(6))/5
			case faults.MsgDrop:
				ev.Probability = float64(in.next(11)) / 10
			case faults.MsgDelay:
				ev.Probability, ev.Extra = float64(in.next(11))/10, float64(1+in.next(10))*10e-6
			case faults.NodeCrash:
				ev.Duration = 0
			}
			p.plan.Events = append(p.plan.Events, ev)
		}
		p.res = Resilience{MaxRetries: in.next(4), OpTimeout: []float64{0, 1e-3, 1e-2}[in.next(3)]}
	}
	return p
}

// programRun is what one run of a program produced.
type programRun struct {
	err      error
	trace    []byte
	events   []trace.Event
	fired    float64
	machines []*Machine
}

// run runs the program on a fresh cluster with a span-recording trace.
func (p clusterProgram) run() (programRun, error) {
	c, err := NewCluster(p.platform, p.machines)
	if err != nil {
		return programRun{}, err
	}
	reg, rec := obs.NewRegistry(), trace.NewRecorder()
	c.WithRegistry(reg).WithObserver(rec)
	if p.plan != nil {
		c.WithFaults(p.plan).WithResilience(p.res).WithWatchdog(1, 200_000)
	}
	world := p.machines * p.ranks
	kern := kernels.New(kernels.NTMemset)
	errs := make([]error, world)
	_, out := c.Run(p.ranks, func(ctx *RankCtx) {
		errs[ctx.Rank()] = p.rank(ctx, kern)
	})
	for _, e := range errs {
		if e != nil && out == nil {
			out = e
		}
	}
	var b bytes.Buffer
	if err := rec.WriteJSONL(&b); err != nil {
		return programRun{}, err
	}
	return programRun{
		err:      out,
		trace:    b.Bytes(),
		events:   rec.Events(),
		fired:    reg.Counter("memcontention_engine_events_fired_total", "", nil).Value(),
		machines: c.Machines(),
	}, nil
}

// rank is one rank's part of the program. It returns the first error of
// an operation, or of a check on what a receive or an Allreduce got.
func (p clusterProgram) rank(ctx *RankCtx, kern kernels.Kernel) error {
	me, world := ctx.Rank(), ctx.Size()
	for _, round := range p.rounds {
		var reqs, named []*MPIRequest
		var want []programMsg
		for pass := 0; pass < 2; pass++ {
			for _, m := range round.msgs {
				if m.dst != me || m.wild != (pass == 1) {
					continue
				}
				src, tag := m.src, m.tag
				if m.wild {
					src, tag = AnySource, AnyTag
				}
				req, err := ctx.Irecv(src, tag, m.size, m.dstNode)
				if err != nil {
					return err
				}
				reqs = append(reqs, req)
				if !m.wild {
					named, want = append(named, req), append(want, m)
				}
			}
		}
		for _, m := range round.msgs {
			if m.src != me {
				continue
			}
			req, err := ctx.Isend(m.dst, m.tag, m.size, m.srcNode, nil)
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		if c := round.compute[me]; len(c.cores) > 0 {
			if _, err := ctx.Compute(Assignment{Kernel: kern, Cores: c.cores, Node: c.node}, c.bytes); err != nil {
				return err
			}
		}
		if err := ctx.WaitAll(reqs...); err != nil {
			return err
		}
		for i, req := range named {
			st, err := ctx.Wait(req)
			if err != nil {
				return err
			}
			if st.Source != want[i].src || st.Tag != want[i].tag {
				return fmt.Errorf("rank %d: Recv(src=%d, tag=%d) got a message from %d with tag %d", me, want[i].src, want[i].tag, st.Source, st.Tag)
			}
		}
		ctx.Barrier()
		if round.allreduce {
			sum, err := ctx.Allreduce(8, round.compute[me].node, float64(me), func(a, b float64) float64 { return a + b })
			if err != nil {
				return err
			}
			if want := float64(world*(world-1)) / 2; sum != want {
				return fmt.Errorf("rank %d: Allreduce gave %v, want %v", me, sum, want)
			}
		}
	}
	return nil
}

// checkProgramError is check (a): a fault-free program succeeds, and a
// faulted one succeeds or fails with a typed error.
func checkProgramError(p clusterProgram, err error) error {
	if err == nil {
		return nil
	}
	var op *MPIOpError
	var dl *DeadlockError
	var budget *BudgetError
	if p.plan != nil && (errors.As(err, &op) || errors.As(err, &dl) || errors.As(err, &budget)) {
		return nil
	}
	return fmt.Errorf("program failed: %w", err)
}

// checkProgramRates is check (d): every rate change carries, bit for bit,
// the rates SolveInto grants that machine's active streams, rebuilt from
// the trace's flow starts and ends.
func checkProgramRates(run programRun) error {
	active := make([][]memsys.Stream, len(run.machines))
	for i, ev := range run.events {
		switch ev.Kind {
		case trace.FlowStart:
			active[ev.Machine] = append(active[ev.Machine], ev.Stream)
		case trace.FlowEnd:
			active[ev.Machine] = slices.DeleteFunc(active[ev.Machine], func(st memsys.Stream) bool { return st.ID == ev.FlowID })
		case trace.RateChange:
			streams := active[ev.Machine]
			if len(ev.Rates) != len(streams) {
				return fmt.Errorf("event %d: machine %d rated %d flows at t=%g, %d active", i, ev.Machine, len(ev.Rates), ev.At, len(streams))
			}
			rates := make([]float64, len(streams))
			if _, err := run.machines[ev.Machine].Sys.SolveInto(streams, rates); err != nil {
				return fmt.Errorf("event %d: %w", i, err)
			}
			for j, r := range ev.Rates {
				if r.Flow != streams[j].ID || math.Float64bits(r.GBps) != math.Float64bits(rates[j]) {
					return fmt.Errorf("event %d: machine %d at t=%g: flow %d at %v GB/s, SolveInto grants flow %d %v GB/s",
						i, ev.Machine, ev.At, r.Flow, r.GBps, streams[j].ID, rates[j])
				}
			}
		}
	}
	return nil
}

// checkProgramBytes is check (c): every finished flow moved its bytes.
// Its lifetime average times its duration equals its size to a relative
// 1e-9, and so does the integral of its applied rates over the trace
// (prof.BuildTimeline), give or take one byte: the flow manager completes
// a flow with up to a byte left when another flow of its machine drains
// and counts that byte as moved, and a flow of a few bytes integrates
// the roundoff of the simulated times.
func checkProgramBytes(run programRun) error {
	tl, err := prof.BuildTimeline(run.events)
	if err != nil {
		return err
	}
	for _, fi := range tl.Flows {
		d := fi.End - fi.Start
		if !fi.Finished || d <= 0 {
			continue
		}
		integral, avg := fi.MovedGB*units.BytesPerGB, fi.AvgRate*units.BytesPerGB*d
		tol := 1e-9 * fi.Bytes
		if math.Abs(integral-fi.Bytes) > 1+tol || math.Abs(avg-fi.Bytes) > tol {
			return fmt.Errorf("machine %d flow %d (%s, %g bytes over %gs): rate integral %g bytes, average rate × duration %g bytes",
				fi.Machine, fi.ID, fi.Kind, fi.Bytes, d, integral, avg)
		}
	}
	return nil
}

// checkProgram runs p twice, and once more at GOMAXPROCS 1, and makes
// checks (a) to (d). It returns the first run.
func checkProgram(p clusterProgram) (programRun, error) {
	first, err := p.run()
	if err != nil {
		return first, err
	}
	if err := checkProgramError(p, first.err); err != nil {
		return first, err
	}
	for i := 0; i < 2; i++ {
		var again programRun
		if i == 0 {
			again, err = p.run()
		} else {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				again, err = p.run()
			}()
		}
		if err != nil {
			return first, err
		}
		if !bytes.Equal(again.trace, first.trace) || fmt.Sprint(again.err) != fmt.Sprint(first.err) {
			return first, fmt.Errorf("run %d (GOMAXPROCS 1: %v) differs from the first: trace %d vs %d bytes, error %v vs %v",
				i+2, i == 1, len(again.trace), len(first.trace), again.err, first.err)
		}
	}
	if err := checkProgramBytes(first); err != nil {
		return first, err
	}
	if p.plan == nil {
		if err := checkProgramRates(first); err != nil {
			return first, err
		}
	}
	return first, nil
}

// programDigest hashes a run's trace and its count of fired events.
func programDigest(run programRun) string {
	h := sha256.New()
	h.Write(run.trace)
	fmt.Fprintf(h, "fired %g\n", run.fired)
	return hex.EncodeToString(h.Sum(nil))
}

// FuzzClusterProgram runs small random MPI programs on 2–4 machines of a
// testbed platform, at most 8 ranks, and checks what every program must
// keep: (a) nothing panics, a fault-free program returns nil and a
// faulted one nil, an *MPIOpError, a *DeadlockError or a *BudgetError;
// (b) two runs, and a third at GOMAXPROCS 1, write the same trace bytes;
// (c) every finished flow moved its bytes;
// (d) without faults, every rate change equals SolveInto on the
// machine's active streams, bit for bit. The trace of every program of
// the seed corpus must also hash to the digest recorded for it in
// testdata/cluster-programs.txt, so that a change of the DES that moves
// any of their events, rates or spans, or the number of events fired,
// fails here; -update rewrites that file.
func FuzzClusterProgram(f *testing.F) {
	recorded := programDigests(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProgram(data)
		run, err := checkProgram(p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if want, ok := recorded[string(data)]; ok && programDigest(run) != want {
			t.Errorf("seed program %+v: trace digest %s, recorded %s", p, programDigest(run), want)
		}
	})
}

// programDigests returns the recorded trace digests of the seed corpus,
// keyed by input. A corpus file without a digest, such as a failing
// input the fuzzer has added, is replayed unpinned until -update records
// it.
func programDigests(f *testing.F) map[string]string {
	files, err := filepath.Glob(filepath.Join(programCorpus, "*"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed corpus under %s (%v)", programCorpus, err)
	}
	inputs := make(map[string]string, len(files))
	for _, path := range files {
		data, err := readCorpusFile(path)
		if err != nil {
			f.Fatal(err)
		}
		inputs[filepath.Base(path)] = string(data)
	}
	if *update {
		var b strings.Builder
		for _, path := range files {
			name := filepath.Base(path)
			run, err := checkProgram(decodeProgram([]byte(inputs[name])))
			if err != nil {
				f.Fatalf("%s: %v", name, err)
			}
			fmt.Fprintf(&b, "%s %s\n", name, programDigest(run))
		}
		if err := os.WriteFile(programDigestFile, []byte(b.String()), 0o644); err != nil {
			f.Fatal(err)
		}
	}
	raw, err := os.ReadFile(programDigestFile)
	if err != nil {
		f.Fatal(err)
	}
	recorded := make(map[string]string, len(files))
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, digest, ok := strings.Cut(line, " ")
		data, known := inputs[name]
		if !ok || !known {
			f.Fatalf("%s: line %q names no seed corpus file", programDigestFile, line)
		}
		recorded[data] = digest
	}
	return recorded
}

// readCorpusFile decodes one file of a fuzz corpus: the header line and
// one []byte value.
func readCorpusFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	lit, ok := strings.CutPrefix(value, "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	if header != "go test fuzz v1" || !ok || !ok2 {
		return nil, fmt.Errorf("%s: not a one-value []byte corpus file", path)
	}
	data, err := strconv.Unquote(lit)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return []byte(data), nil
}
