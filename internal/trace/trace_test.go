package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"memcontention/internal/engine"
	"memcontention/internal/memsys"
	"memcontention/internal/obs"
	"memcontention/internal/topology"
	"memcontention/internal/units"
)

// A Recorder is the one trace hook: flow observer and span recorder.
var (
	_ engine.FlowObserver = (*Recorder)(nil)
	_ obs.SpanRecorder    = (*Recorder)(nil)
)

// recordedRun executes a small two-flow simulation with a recorder
// attached and returns the recorder.
func recordedRun(t *testing.T) *Recorder {
	t.Helper()
	prof, err := memsys.ProfileFor("henri")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := memsys.New(topology.Henri(), prof)
	if err != nil {
		t.Fatal(err)
	}
	sim := engine.NewSim()
	flows := engine.NewFlows(sim, sys)
	rec := NewRecorder()
	flows.SetObserver(rec)
	sim.Spawn("main", func(p *engine.Proc) {
		comm := flows.Start(memsys.Stream{Kind: memsys.KindComm, Node: 0}, 32*units.MiB)
		comp := flows.Start(memsys.Stream{Kind: memsys.KindCompute, Core: 0, Node: 0, Demand: 5}, 64*units.MiB)
		rec.MarkAt(sim.Now(), "both started")
		comm.Wait(p)
		comp.Wait(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRecorderLifecycle(t *testing.T) {
	rec := recordedRun(t)
	var starts, ends, marks, rates int
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case FlowStart:
			starts++
		case FlowEnd:
			ends++
		case Mark:
			marks++
		case RateChange:
			rates++
		}
	}
	if starts != 2 || ends != 2 {
		t.Errorf("lifecycle events: %d starts, %d ends (want 2/2)", starts, ends)
	}
	if marks != 1 {
		t.Errorf("marks = %d", marks)
	}
	if rates < 2 {
		t.Errorf("rate resolves = %d, want at least one per start", rates)
	}
	// Events must be time-ordered.
	prev := -1.0
	for _, ev := range rec.Events() {
		if ev.At < prev {
			t.Fatal("events out of time order")
		}
		prev = ev.At
	}
}

func TestSummarize(t *testing.T) {
	rec := recordedRun(t)
	comm := rec.Summarize(memsys.KindComm)
	if comm.Flows != 1 || comm.Finished != 1 {
		t.Fatalf("comm summary: %+v", comm)
	}
	if comm.Bytes != 32*units.MiB {
		t.Errorf("comm bytes = %v", comm.Bytes)
	}
	if comm.MeanRate <= 0 || comm.MeanRate > 11 {
		t.Errorf("comm mean rate = %v", comm.MeanRate)
	}
	if comm.MinRate > comm.MaxRate {
		t.Error("rate bounds inverted")
	}
	comp := rec.Summarize(memsys.KindCompute)
	if comp.Finished != 1 || comp.Bytes != 64*units.MiB {
		t.Errorf("comp summary: %+v", comp)
	}
	if comp.BusyTime <= comm.BusyTime {
		t.Error("the larger, slower transfer must be busy longer")
	}
	if comm.PeakActive != 2 {
		t.Errorf("peak active = %d, want 2", comm.PeakActive)
	}
}

// TestSummarizeDeterministic: the per-kind sums must not depend on map
// iteration order. Float addition is not associative, so with many
// flows a different order changes the last bits of MeanRate and
// BusyTime; repeated calls and a recorder rebuilt by Ingest must agree
// bit for bit.
func TestSummarizeDeterministic(t *testing.T) {
	kinds := []memsys.StreamKind{memsys.KindComm, memsys.KindCompute}
	rec := NewRecorder()
	id := 0
	for i := 0; i < 16; i++ {
		for _, kind := range kinds {
			id++
			start := float64(i) * 1.3e-4
			rec.FlowStarted(i%2, id, memsys.Stream{Kind: kind}, float64(id+1)*3.3e6, start)
			rec.FlowFinished(i%2, id, start+float64(id)*7.1e-4, 10/float64(id+2))
		}
	}
	replay := NewRecorder()
	replay.Ingest(rec.Events())
	bits := func(s Summary) [2]uint64 {
		return [2]uint64{math.Float64bits(s.MeanRate), math.Float64bits(s.BusyTime)}
	}
	for _, kind := range kinds {
		want := rec.Summarize(kind)
		if want.Finished != 16 {
			t.Fatalf("%s: %d finished flows, want 16", kind, want.Finished)
		}
		for i := 0; i < 200; i++ {
			if got := rec.Summarize(kind); bits(got) != bits(want) || got != want {
				t.Fatalf("%s: call %d gave %+v, first call %+v", kind, i+2, got, want)
			}
		}
		if got := replay.Summarize(kind); bits(got) != bits(want) || got != want {
			t.Errorf("%s: ingested replay gave %+v, recording %+v", kind, got, want)
		}
	}
}

// TestRecorderSpanIDsInCallOrder: span ids come from one allocator in
// call order, parents are recorded as given, and two identical call
// sequences produce byte-identical traces.
func TestRecorderSpanIDsInCallOrder(t *testing.T) {
	build := func() *Recorder {
		rec := NewRecorder()
		root := rec.BeginSpan(0, "rank 0", "rank", 0, obs.NoRank())
		op := rec.BeginSpan(root, "send→1", "mpi", 0.5, obs.NoRank())
		rec.FlowStarted(0, 1, memsys.Stream{Kind: memsys.KindComm}, 1024, 0.5)
		flow := rec.BeginSpan(op, "flow #1", "flow", 0.5,
			obs.SpanAttrs{Rank: -1, Flow: 1, Stream: "comm", Links: []string{"pcie", "node0"}})
		rec.FlowFinished(0, 1, 1, 2)
		rec.EndSpan(flow, 1)
		rec.EndSpan(op, 1)
		barrier := rec.BeginSpan(root, "barrier", "mpi", 1, obs.NoRank())
		rec.EndSpan(barrier, 1.5)
		rec.EndSpan(root, 1.5)
		return rec
	}
	rec := build()
	type link struct{ span, parent obs.SpanID }
	var got []link
	ends := 0
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case SpanBegin:
			got = append(got, link{ev.Span, ev.Parent})
		case SpanEnd:
			ends++
		}
	}
	want := []link{{1, 0}, {2, 1}, {3, 2}, {4, 1}}
	if len(got) != len(want) || ends != len(want) {
		t.Fatalf("spans %v with %d ends, want %v each ended", got, ends, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: (id, parent) = %v, want %v", i, got[i], want[i])
		}
	}
	var a, b bytes.Buffer
	if err := rec.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("identical span sequences produced different traces:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestNilRecorderSpans: a nil recorder is an inert span recorder, and
// ending span 0 (a span begun while spans were off) records nothing.
func TestNilRecorderSpans(t *testing.T) {
	var nilRec *Recorder
	if id := nilRec.BeginSpan(0, "rank 0", "rank", 0, obs.NoRank()); id != 0 {
		t.Errorf("nil recorder handed out span %d, want 0", id)
	}
	nilRec.EndSpan(1, 1)
	rec := NewRecorder()
	rec.EndSpan(0, 1)
	if n := rec.EventCount(); n != 0 {
		t.Errorf("EndSpan(0) recorded %d events, want 0", n)
	}
}

func TestTimelineRendering(t *testing.T) {
	rec := recordedRun(t)
	text := rec.Timeline(0)
	for _, want := range []string{"flow-start", "flow-end", "mark", "both started", "GB/s"} {
		if !strings.Contains(text, want) {
			t.Errorf("timeline missing %q:\n%s", want, text)
		}
	}
	limited := rec.Timeline(2)
	if !strings.Contains(limited, "more events") {
		t.Error("truncated timeline must say how much was dropped")
	}
	if strings.Count(limited, "\n") != 3 { // 2 events + ellipsis
		t.Errorf("limited timeline:\n%s", limited)
	}
}

func TestGanttRendering(t *testing.T) {
	rec := recordedRun(t)
	g := rec.Gantt(40)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("gantt lines = %d:\n%s", len(lines), g)
	}
	// Comm flow renders with '~', compute with '='.
	if !strings.Contains(g, "~") || !strings.Contains(g, "=") {
		t.Errorf("gantt glyphs missing:\n%s", g)
	}
	if NewRecorder().Gantt(40) != "(no finished flows)\n" {
		t.Error("empty gantt must say so")
	}
}

func TestMaxEventsBound(t *testing.T) {
	rec := NewRecorder()
	rec.MaxEvents = 3
	if rec.Truncated() {
		t.Error("fresh recorder must not be truncated")
	}
	for i := 0; i < 10; i++ {
		rec.RatesResolved(0, float64(i), map[int]float64{1: 1})
	}
	// 3 rate changes plus exactly one "truncated" mark.
	if len(rec.Events()) != 4 {
		t.Errorf("MaxEvents not enforced: %d events", len(rec.Events()))
	}
	if !rec.Truncated() {
		t.Error("dropping events must set Truncated")
	}
	last := rec.Events()[3]
	if last.Kind != Mark || last.Label != TruncatedLabel || last.At != 3 {
		t.Errorf("missing truncation marker, got %+v", last)
	}
	// Lifecycle events are always kept.
	rec.FlowStarted(0, 1, memsys.Stream{}, 10, 1)
	if len(rec.Events()) != 5 {
		t.Error("lifecycle events must bypass the bound")
	}
}

// TestTruncationCounter: drops feed memcontention_trace_dropped_total.
func TestTruncationCounter(t *testing.T) {
	reg := obs.NewRegistry()
	rec := NewRecorder()
	rec.SetRegistry(reg)
	rec.MaxEvents = 1
	for i := 0; i < 5; i++ {
		rec.RatesResolved(0, float64(i), map[int]float64{1: 1})
	}
	c := reg.Counter("memcontention_trace_dropped_total", "", nil)
	if got := c.Value(); got != 4 {
		t.Errorf("dropped counter = %v, want 4", got)
	}
}

func TestEventKindString(t *testing.T) {
	for _, k := range []EventKind{FlowStart, FlowEnd, RateChange, Mark} {
		if k.String() == "" {
			t.Error("empty kind string")
		}
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind must render")
	}
}

func TestCheckpointEvent(t *testing.T) {
	var r Recorder
	r.CheckpointAt(1.5, "interrupted: 3/9 placements journaled")
	if Checkpoint.String() != "checkpoint" {
		t.Fatalf("Checkpoint.String() = %q", Checkpoint.String())
	}
	out := r.Timeline(0)
	if !strings.Contains(out, "checkpoint") || !strings.Contains(out, "3/9 placements") {
		t.Fatalf("timeline missing checkpoint event:\n%s", out)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.Contains(line, `"kind":"checkpoint"`) || !strings.Contains(line, `"label":"interrupted: 3/9 placements journaled"`) {
		t.Fatalf("jsonl missing checkpoint fields: %s", line)
	}
}
