package trace

import (
	"bytes"
	"strings"
	"testing"

	"memcontention/internal/memsys"
	"memcontention/internal/obs"
)

// profiledEvents builds a timeline exercising every event kind and every
// optional field combination the wire format distinguishes.
func profiledEvents() []Event {
	return []Event{
		{At: 0, Kind: SpanBegin, Span: 1, Label: "rank 0", Cat: "rank", Attrs: obs.SpanAttrs{Rank: 0, Node: -1}},
		{At: 0, Kind: SpanBegin, Span: 2, Parent: 1, Label: "send→1", Cat: "mpi", Attrs: obs.SpanAttrs{Machine: 1, Rank: 0, Node: -1}},
		{At: 0.1, Kind: FlowStart, Machine: 1, FlowID: 1, Stream: memsys.Stream{ID: 1, Kind: memsys.KindComm, Node: 0}, Bytes: 1 << 20},
		{At: 0.1, Kind: SpanBegin, Span: 3, Parent: 2, Label: "flow #1", Cat: "flow",
			Attrs: obs.SpanAttrs{Machine: 1, Rank: -1, Flow: 1, Stream: "comm", Node: 0, Links: []string{"pcie", "node0"}}},
		{At: 0.1, Kind: RateChange, Machine: 1, ActiveFlows: 1, Rates: []FlowRate{{Flow: 1, GBps: 10.5}}},
		{At: 0.15, Kind: FlowStart, FlowID: 2, Stream: memsys.Stream{ID: 2, Kind: memsys.KindCompute, Node: 1, Demand: 5.25}, Bytes: 4096},
		{At: 0.2, Kind: Instant, Span: 3, Label: "limited", Cat: "flow", Attrs: obs.SpanAttrs{Machine: 1, Rank: -1, Node: -1}},
		{At: 0.3, Kind: Mark, Label: "phase"},
		{At: 0.4, Kind: Fault, Label: "nic-stall"},
		{At: 0.5, Kind: FlowEnd, Machine: 1, FlowID: 1, AvgRate: 9.75},
		{At: 0.5, Kind: FlowEnd, FlowID: 2, AvgRate: 1.0},
		{At: 0.5, Kind: RateChange, ActiveFlows: 0},
		{At: 0.6, Kind: SpanEnd, Span: 3},
		{At: 0.6, Kind: SpanEnd, Span: 2},
		{At: 0.7, Kind: SpanEnd, Span: 1},
		{At: 0.8, Kind: Checkpoint, Label: "interrupted"},
	}
}

// TestJSONLRoundTrip: write → read → write must be byte-identical, for
// every kind and field combination. memprof -load re-reads written
// traces; any asymmetry here would change what it analyzes.
func TestJSONLRoundTrip(t *testing.T) {
	events := profiledEvents()
	var first bytes.Buffer
	if err := WriteEventsJSONL(&first, events); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSONL: %v\n%s", err, first.String())
	}
	if len(decoded) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(decoded), len(events))
	}
	var second bytes.Buffer
	if err := WriteEventsJSONL(&second, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("round trip not byte-identical:\n%s\nvs\n%s", first.String(), second.String())
	}
}

// TestIngestReplay: replaying a recorded stream through a fresh recorder
// reconstructs the per-flow bookkeeping (Summarize works on the copy).
func TestIngestReplay(t *testing.T) {
	rec := recordedRun(t)
	replay := NewRecorder()
	replay.Ingest(rec.Events())
	for _, kind := range []memsys.StreamKind{memsys.KindComm, memsys.KindCompute} {
		a, b := rec.Summarize(kind), replay.Summarize(kind)
		if a != b {
			t.Errorf("%v summary diverged after replay:\n%+v\nvs\n%+v", kind, a, b)
		}
	}
}

func TestReadJSONLRejectsMalformed(t *testing.T) {
	cases := []struct{ name, line string }{
		{"not json", "{"},
		{"unknown kind", `{"kind":"warp","at":0}`},
		{"missing kind", `{"at":0}`},
		{"flow-start no fields", `{"kind":"flow-start","at":0}`},
		{"flow-start bad stream", `{"kind":"flow-start","at":0,"flow":1,"stream":"dma","node":0,"bytes":1}`},
		{"flow-end no rate", `{"kind":"flow-end","at":0,"flow":1}`},
		{"rate-change no active", `{"kind":"rate-change","at":0}`},
		{"span-begin no id", `{"kind":"span-begin","at":0,"label":"x"}`},
		{"span-end no id", `{"kind":"span-end","at":0}`},
		{"huge line", `{"kind":"mark","at":0,"label":"` + strings.Repeat("x", maxLineBytes) + `"}`},
	}
	for _, c := range cases {
		if _, err := ReadJSONL(strings.NewReader(c.line + "\n")); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Blank lines are tolerated.
	evs, err := ReadJSONL(strings.NewReader("\n" + `{"kind":"mark","at":1,"label":"ok"}` + "\n\n"))
	if err != nil || len(evs) != 1 {
		t.Errorf("blank lines: events=%d err=%v", len(evs), err)
	}
}
