package prof

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"memcontention/internal/engine"
	"memcontention/internal/kernels"
	"memcontention/internal/memsys"
	"memcontention/internal/mpi"
	"memcontention/internal/obs"
	"memcontention/internal/simnet"
	"memcontention/internal/topology"
	"memcontention/internal/trace"
	"memcontention/internal/units"
)

// profiledClusterRun executes a two-machine halo-style exchange (send
// 8 MiB while the receiver computes) with a recorder attached to every
// layer, and returns the recorder and the simulated makespan.
func profiledClusterRun(t testing.TB, platform string) (*trace.Recorder, float64) {
	t.Helper()
	plat, err := topology.ByName(platform)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := memsys.ProfileFor(platform)
	if err != nil {
		t.Fatal(err)
	}
	sim := engine.NewSim()
	fabric, err := simnet.NewFabric(sim, simnet.WireRateFor(plat.NIC.Tech, plat.NIC.PCIeGen), 1.5e-6)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := memsys.New(plat, hw)
	if err != nil {
		t.Fatal(err)
	}
	p := trace.NewRecorder()
	var machines []*simnet.Machine
	for i := 0; i < 2; i++ {
		m := simnet.NewMachine(sim, i, sys)
		if err := fabric.Attach(m); err != nil {
			t.Fatal(err)
		}
		m.Flows.SetObserver(p)
		machines = append(machines, m)
	}
	fabric.SetSpanRecorder(p)
	world, err := mpi.NewWorld(sim, fabric, machines, 1)
	if err != nil {
		t.Fatal(err)
	}
	world.SetSpanRecorder(p)
	world.Launch(func(c *mpi.Ctx) {
		const tag = 7
		if c.Rank() == 0 {
			if err := c.Send(1, tag, 8*units.MiB, 0, nil); err != nil {
				t.Error(err)
			}
		} else {
			req, err := c.Irecv(0, tag, 8*units.MiB, 0)
			if err != nil {
				t.Error(err)
				return
			}
			a := kernels.Assignment{Kernel: kernels.New(kernels.Triad), Cores: []topology.CoreID{0, 1}, Node: 0}
			if _, err := c.Compute(a, 4*units.MiB); err != nil {
				t.Error(err)
			}
			if _, err := c.Wait(req); err != nil {
				t.Error(err)
			}
		}
		c.Barrier()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return p, sim.Now()
}

// TestCriticalPathCluster: the walk must cover the whole makespan with
// contiguous steps and descend through the MPI and memory layers.
func TestCriticalPathCluster(t *testing.T) {
	p, makespan := profiledClusterRun(t, "henri")
	st, err := BuildSpanTree(p.Events())
	if err != nil {
		t.Fatal(err)
	}
	if st.SpanCount() < 8 {
		t.Fatalf("span count = %d, want rank/op/transfer/flow spans", st.SpanCount())
	}
	steps := st.CriticalPath()
	if len(steps) < 2 {
		t.Fatalf("critical path too short: %+v", steps)
	}
	const eps = 1e-9
	if steps[0].From > eps {
		t.Errorf("path starts at %v, want 0", steps[0].From)
	}
	if math.Abs(steps[len(steps)-1].To-makespan) > eps {
		t.Errorf("path ends at %v, makespan %v", steps[len(steps)-1].To, makespan)
	}
	for i := 1; i < len(steps); i++ {
		if math.Abs(steps[i].From-steps[i-1].To) > eps {
			t.Errorf("gap between step %d (to %v) and %d (from %v)", i-1, steps[i-1].To, i, steps[i].From)
		}
	}
	cats := map[string]bool{}
	for i := range steps {
		if steps[i].Duration() < -eps {
			t.Errorf("negative step: %+v", steps[i])
		}
		cats[steps[i].Cat] = true
	}
	// Spans only appear with their exclusive time: the rank and MPI-op
	// spans are fully covered by the transfer below them, so the path
	// must descend to the data layers — the wire latency (transfer self
	// time) and the receive-side DMA flow that actually bound the run.
	if !cats["transfer"] {
		t.Errorf("critical path misses the transfer latency: %v", cats)
	}
	if !cats["flow"] {
		t.Errorf("critical path never reaches a memory flow: %v", cats)
	}
	attrs := AttributeSteps(steps)
	var share float64
	for _, a := range attrs {
		share += a.Share
	}
	if math.Abs(share-1) > 1e-9 {
		t.Errorf("attribution shares sum to %v", share)
	}
	if out := FormatCriticalPath(steps); !strings.Contains(out, "flow") {
		t.Errorf("critical path rendering:\n%s", out)
	}
	if out := FormatAttribution(steps); !strings.Contains(out, "%") {
		t.Errorf("attribution rendering:\n%s", out)
	}
}

// TestProfilerDeterminism: two identical runs must produce byte-identical
// JSONL traces and Perfetto exports.
func TestProfilerDeterminism(t *testing.T) {
	p1, _ := profiledClusterRun(t, "henri")
	p2, _ := profiledClusterRun(t, "henri")
	var j1, j2 bytes.Buffer
	if err := trace.WriteEventsJSONL(&j1, p1.Events()); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteEventsJSONL(&j2, p2.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Error("JSONL traces of identical runs differ")
	}
	var f1, f2 bytes.Buffer
	if err := WritePerfetto(&f1, p1.Events()); err != nil {
		t.Fatal(err)
	}
	if err := WritePerfetto(&f2, p2.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f1.Bytes(), f2.Bytes()) {
		t.Error("Perfetto exports of identical runs differ")
	}
}

// TestTraceRoundTripAnalyses: analyses on a loaded trace must match the
// live recording (memprof works on files).
func TestTraceRoundTripAnalyses(t *testing.T) {
	p, _ := profiledClusterRun(t, "henri")
	var buf bytes.Buffer
	if err := trace.WriteEventsJSONL(&buf, p.Events()); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	live, err := BuildSpanTree(p.Events())
	if err != nil {
		t.Fatal(err)
	}
	disk, err := BuildSpanTree(loaded)
	if err != nil {
		t.Fatal(err)
	}
	a, b := live.CriticalPath(), disk.CriticalPath()
	if len(a) != len(b) {
		t.Fatalf("critical path lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Span != b[i].Span || a[i].From != b[i].From || a[i].To != b[i].To {
			t.Errorf("step %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestIngestAdvancesSpanIDs(t *testing.T) {
	p := trace.NewRecorder()
	p.Ingest([]trace.Event{
		{At: 0, Kind: trace.SpanBegin, Span: 5, Label: "old", Cat: "rank", Attrs: obs.NoRank()},
		{At: 1, Kind: trace.SpanEnd, Span: 5},
	})
	if id := p.BeginSpan(0, "new", "rank", 2, obs.NoRank()); id != 6 {
		t.Errorf("span id after ingest = %d, want 6", id)
	}
}

func TestEmptyTree(t *testing.T) {
	st, err := BuildSpanTree(nil)
	if err != nil {
		t.Fatal(err)
	}
	if steps := st.CriticalPath(); steps != nil {
		t.Errorf("empty tree path = %+v", steps)
	}
	if out := FormatCriticalPath(nil); !strings.Contains(out, "no spans") {
		t.Errorf("empty rendering: %q", out)
	}
}
