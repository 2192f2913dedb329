package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memcontention/internal/campaign"
	"memcontention/internal/obs"
	"memcontention/internal/prof"
	"memcontention/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// profileRun drives the command core like main would, returning the report
// text. Extra telemetry destinations come from cli.
func profileRun(t *testing.T, o options, cli *obs.CLI) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), &out, o, cli); err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.String()
}

// TestMemprofReports exercises the full report on two Table I platforms
// and pins the timeline's per-flow bandwidth integral to the engine's
// reported average within 1e-9 relative error.
func TestMemprofReports(t *testing.T) {
	for _, platform := range []string{"henri", "dahu"} {
		t.Run(platform, func(t *testing.T) {
			dir := t.TempDir()
			tracePath := filepath.Join(dir, "run.jsonl")
			cli := &obs.CLI{TracePath: tracePath}
			out := profileRun(t, options{platform: platform, top: 5, width: 40}, cli)

			for _, want := range []string{
				"profiled overlap scenario on " + platform,
				"== critical path",
				"== critical-path attribution ==",
				"== per-stream attribution",
				"== link utilization ==",
				"== bandwidth shares ==",
				"flow",
			} {
				if !strings.Contains(out, want) {
					t.Errorf("report missing %q:\n%s", want, out)
				}
			}

			events, err := trace.LoadJSONL(tracePath)
			if err != nil {
				t.Fatalf("loading -trace output: %v", err)
			}
			tl, err := prof.BuildTimeline(events)
			if err != nil {
				t.Fatalf("BuildTimeline: %v", err)
			}
			if len(tl.Flows) == 0 {
				t.Fatal("timeline recorded no flows")
			}
			for _, fi := range tl.Flows {
				if !fi.Finished || fi.AvgRate <= 0 {
					continue
				}
				got := fi.IntegralRate()
				rel := math.Abs(got-fi.AvgRate) / fi.AvgRate
				if rel > 1e-9 {
					t.Errorf("m%d flow %d: integral %.12f GB/s vs engine %.12f GB/s (rel %.3e)",
						fi.Machine, fi.ID, got, fi.AvgRate, rel)
				}
			}
		})
	}
}

// TestMemprofGoldenPerfetto validates the Perfetto export byte-for-byte
// against a golden file (the DES is deterministic). Regenerate with
// `go test ./cmd/memprof -run Golden -update`.
func TestMemprofGoldenPerfetto(t *testing.T) {
	dir := t.TempDir()
	pf := filepath.Join(dir, "henri.perfetto.json")
	profileRun(t, options{platform: "henri", top: 5, width: 40, perfetto: pf}, &obs.CLI{})

	got, err := os.ReadFile(pf)
	if err != nil {
		t.Fatalf("reading export: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("export has no trace events")
	}

	golden := filepath.Join("testdata", "henri.perfetto.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Perfetto export differs from golden %s (run with -update after intended changes)", golden)
	}
}

// TestMemprofLoad records a trace, re-analyses it with -load, and checks
// the offline report reproduces the live critical path exactly.
func TestMemprofLoad(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.jsonl")
	live := profileRun(t, options{platform: "henri", top: 5, width: 40}, &obs.CLI{TracePath: tracePath})
	loaded := profileRun(t, options{load: tracePath, top: 5, width: 40}, &obs.CLI{})

	if !strings.Contains(loaded, "loaded ") {
		t.Errorf("-load report missing source banner:\n%s", loaded)
	}
	liveCP := section(t, live, "== critical path")
	loadedCP := section(t, loaded, "== critical path")
	if liveCP != loadedCP {
		t.Errorf("critical path diverged between live and -load runs:\nlive:\n%s\nloaded:\n%s", liveCP, loadedCP)
	}
}

// TestMemprofLoadsRecorderTrace pins the one-trace promise: the
// cross-check recorded through a plain campaign.Config.Recorder —
// memmodel's -trace path — carries the causal spans, so -load of it
// reports the same critical path and makespan as the live run.
func TestMemprofLoadsRecorderTrace(t *testing.T) {
	rec := trace.NewRecorder()
	if _, err := campaign.CrossCheck(campaign.Config{Seed: 1, Recorder: rec}, "henri"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "memmodel.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	live := profileRun(t, options{platform: "henri", top: 5, width: 40}, &obs.CLI{})
	loaded := profileRun(t, options{load: path, top: 5, width: 40}, &obs.CLI{})
	liveCP := section(t, live, "== critical path")
	loadedCP := section(t, loaded, "== critical path")
	if strings.Contains(loadedCP, "(0 spans") {
		t.Fatalf("recorder trace carries no spans:\n%s", loadedCP)
	}
	if liveCP != loadedCP {
		t.Errorf("critical path of the recorder trace differs from the live run:\nlive:\n%s\nloaded:\n%s", liveCP, loadedCP)
	}
}

// section extracts one "== header ==" block up to the next header.
func section(t *testing.T, report, header string) string {
	t.Helper()
	i := strings.Index(report, header)
	if i < 0 {
		t.Fatalf("report has no %q section:\n%s", header, report)
	}
	rest := report[i:]
	if j := strings.Index(rest[len(header):], "\n== "); j >= 0 {
		rest = rest[:len(header)+j]
	}
	return rest
}
