package prof

import (
	"math"
	"strings"
	"testing"

	"memcontention/internal/engine"
	"memcontention/internal/memsys"
	"memcontention/internal/topology"
	"memcontention/internal/trace"
	"memcontention/internal/units"
)

// calibrationRun replays one §III calibration scenario — a single comm
// stream against a single compute stream on one machine, with a recorder
// attached — and returns the recorder.
func calibrationRun(t *testing.T, platform string, compNode, commNode int) *trace.Recorder {
	t.Helper()
	plat, err := topology.ByName(platform)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := memsys.ProfileFor(platform)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := memsys.New(plat, hw)
	if err != nil {
		t.Fatal(err)
	}
	sim := engine.NewSim()
	flows := engine.NewFlows(sim, sys)
	p := trace.NewRecorder()
	flows.SetObserver(p)
	sim.Spawn("main", func(pr *engine.Proc) {
		comm := flows.Start(memsys.Stream{Kind: memsys.KindComm, Node: topology.NodeID(commNode)}, 32*units.MiB)
		comp := flows.Start(memsys.Stream{Kind: memsys.KindCompute, Core: 0, Node: topology.NodeID(compNode), Demand: 5}, 64*units.MiB)
		comm.Wait(pr)
		comp.Wait(pr)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return p
}

func relClose(a, b, tol float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
}

// TestCalibrationIntegrals replays the paper's §III calibration
// placements (all-local and all-remote, on two Table I platforms) and
// asserts that per-stream bandwidth integrals from the reconstructed
// timeline equal the simulator's reported averages to 1e-9 — the
// fidelity contract between the profiler and the fluid solver.
func TestCalibrationIntegrals(t *testing.T) {
	cases := []struct {
		name               string
		platform           string
		compNode, commNode int
		wantXlink          bool
	}{
		{"henri/all-local", "henri", 0, 0, false},
		{"henri/all-remote", "henri", 1, 1, true},
		{"dahu/all-local", "dahu", 0, 0, false},
		{"dahu/all-remote", "dahu", 1, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := calibrationRun(t, tc.platform, tc.compNode, tc.commNode)
			tl, err := BuildTimeline(p.Events())
			if err != nil {
				t.Fatal(err)
			}
			if len(tl.Flows) != 2 {
				t.Fatalf("flows = %d, want 2", len(tl.Flows))
			}
			for _, fi := range tl.Flows {
				if !fi.Finished {
					t.Fatalf("flow %d unfinished", fi.ID)
				}
				if !relClose(fi.IntegralRate(), fi.AvgRate, 1e-9) {
					t.Errorf("%s flow %d: timeline integral %v GB/s vs engine average %v GB/s",
						fi.Kind, fi.ID, fi.IntegralRate(), fi.AvgRate)
				}
				if !relClose(fi.MovedGB*units.BytesPerGB, fi.Bytes, 1e-9) {
					t.Errorf("%s flow %d: integrated %v bytes vs %v started",
						fi.Kind, fi.ID, fi.MovedGB*units.BytesPerGB, fi.Bytes)
				}
			}
			// The flow spans carry the solver's exact link attribution.
			comp := tl.Flows[1]
			if comp.Kind != "compute" {
				comp = tl.Flows[0]
			}
			hasXlink := false
			for _, l := range comp.Links {
				if l == "xlink" {
					hasXlink = true
				}
			}
			if hasXlink != tc.wantXlink {
				t.Errorf("compute flow links = %v, want xlink=%v", comp.Links, tc.wantXlink)
			}
		})
	}
}

func TestTimelineRejectsTruncated(t *testing.T) {
	rec := trace.NewRecorder()
	rec.MaxEvents = 1
	for i := 0; i < 4; i++ {
		rec.RatesResolved(0, float64(i), map[int]float64{1: 2})
	}
	if _, err := BuildTimeline(rec.Events()); err == nil {
		t.Fatal("truncated trace must be refused")
	}
}

func TestLinkUtilizationAndChart(t *testing.T) {
	p := calibrationRun(t, "henri", 0, 0)
	tl, err := BuildTimeline(p.Events())
	if err != nil {
		t.Fatal(err)
	}
	links := tl.LinkUtilization()
	var node0 *LinkUtil
	for i := range links {
		if links[i].Link == "node0" {
			node0 = &links[i]
		}
	}
	if node0 == nil {
		t.Fatalf("no node0 utilization in %+v", links)
	}
	// Both streams hit node 0: 32 MiB comm + 64 MiB compute.
	if !relClose(node0.CommGB*units.BytesPerGB, float64(32*units.MiB), 1e-9) {
		t.Errorf("node0 comm = %v GB", node0.CommGB)
	}
	if !relClose(node0.ComputeGB*units.BytesPerGB, float64(64*units.MiB), 1e-9) {
		t.Errorf("node0 compute = %v GB", node0.ComputeGB)
	}
	if node0.Busy <= 0 || node0.Busy > tl.Makespan {
		t.Errorf("node0 busy = %v (makespan %v)", node0.Busy, tl.Makespan)
	}
	if node0.Peak <= 0 {
		t.Errorf("node0 peak = %v", node0.Peak)
	}
	top := tl.TopContended(1)
	if len(top) != 1 || top[0].Link != "node0" {
		t.Errorf("top contended = %+v, want node0", top)
	}
	chart := tl.ShareChart(60)
	if !strings.Contains(chart, "node0") || !strings.Contains(chart, "#") {
		t.Errorf("share chart missing contended node0 row:\n%s", chart)
	}
	if out := FormatUtilization(tl); !strings.Contains(out, "node0") || !strings.Contains(out, "GB/s") {
		t.Errorf("utilization table:\n%s", out)
	}
}
