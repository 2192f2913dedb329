package memcontention

import (
	"bytes"
	"strings"
	"testing"
)

// runObservedJob runs a tiny two-machine ping job with a registry and a
// trace recorder attached and returns both.
func runObservedJob(t *testing.T) (*Registry, *TraceRecorder) {
	t.Helper()
	reg := NewRegistry()
	rec := NewTraceRecorder()
	cluster, err := NewCluster("henri", 2)
	if err != nil {
		t.Fatal(err)
	}
	cluster.WithRegistry(reg).WithObserver(rec)
	if cluster.Registry() != reg {
		t.Fatal("Registry() must return the attached registry")
	}
	_, err = cluster.Run(1, func(ctx *RankCtx) {
		switch ctx.Rank() {
		case 0:
			if err := ctx.Send(1, 1, 8*MiB, 0, nil); err != nil {
				t.Error(err)
			}
		case 1:
			if _, err := ctx.Recv(0, 1, 8*MiB, 0); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg, rec
}

func TestClusterTelemetry(t *testing.T) {
	reg, rec := runObservedJob(t)
	if got := reg.Counter("memcontention_cluster_runs_total", "", nil).Value(); got != 1 {
		t.Errorf("runs counter = %v, want 1", got)
	}
	if got := reg.Gauge("memcontention_cluster_ranks", "", nil).Value(); got != 2 {
		t.Errorf("ranks gauge = %v, want 2", got)
	}
	if got := reg.Gauge("memcontention_cluster_sim_seconds", "", nil).Value(); got <= 0 {
		t.Errorf("sim time gauge = %v, want > 0", got)
	}
	// The engine and flow instruments must be wired through too.
	if got := reg.Counter("memcontention_engine_flows_started_total", "", nil).Value(); got < 2 {
		t.Errorf("flows started = %v, want >= 2 (src+dst streams)", got)
	}
	if got := reg.Counter("memcontention_engine_events_fired_total", "", nil).Value(); got == 0 {
		t.Error("no engine events recorded")
	}
	// The ranks are the only processes: a fabric message completes
	// through callbacks, not a process of its own.
	if got := reg.Counter("memcontention_engine_procs_spawned_total", "", nil).Value(); got != 2 {
		t.Errorf("procs spawned = %v, want 2 (one per rank)", got)
	}
	// The observer must have seen the same flows.
	if rec.EventCount() == 0 {
		t.Fatal("trace recorder saw no events")
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "memcontention_cluster_runs_total 1") {
		t.Error("cluster counter missing from exposition")
	}
}

// TestClusterTelemetryDeterministic checks that two identically seeded
// simulated jobs export byte-identical metrics and traces.
func TestClusterTelemetryDeterministic(t *testing.T) {
	regA, recA := runObservedJob(t)
	regB, recB := runObservedJob(t)
	var promA, promB, jsonlA, jsonlB bytes.Buffer
	if err := regA.WritePrometheus(&promA); err != nil {
		t.Fatal(err)
	}
	if err := regB.WritePrometheus(&promB); err != nil {
		t.Fatal(err)
	}
	if promA.String() != promB.String() {
		t.Error("Prometheus exports differ across identical runs")
	}
	if err := recA.WriteJSONL(&jsonlA); err != nil {
		t.Fatal(err)
	}
	if err := recB.WriteJSONL(&jsonlB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonlA.Bytes(), jsonlB.Bytes()) {
		t.Error("JSONL traces differ across identical runs")
	}
}
