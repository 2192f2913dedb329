package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"memcontention/internal/memsys"
)

// TestZeroValueRecorderMarkFirst is the regression test for the
// zero-value Recorder: a Mark emitted before any flow starts used to
// panic on the nil flow map as soon as a flow arrived.
func TestZeroValueRecorderMarkFirst(t *testing.T) {
	var rec Recorder // zero value, not NewRecorder
	rec.MarkAt(0, "before anything")
	rec.FlowStarted(0, 1, memsys.Stream{Kind: memsys.KindComm, Node: 0}, 1024, 0)
	rec.FlowFinished(0, 1, 0.5, 2.0)
	if got := rec.EventCount(); got != 3 {
		t.Fatalf("events = %d, want 3", got)
	}
	if s := rec.Summarize(memsys.KindComm); s.Finished != 1 {
		t.Errorf("summary finished = %d, want 1", s.Finished)
	}
	if out := rec.Timeline(0); !strings.Contains(out, "before anything") {
		t.Errorf("timeline lost the mark:\n%s", out)
	}
}

// TestEmptyRecorderRenders is the regression test for the empty timeline:
// every renderer must produce sane output with zero events.
func TestEmptyRecorderRenders(t *testing.T) {
	rec := NewRecorder()
	if out := rec.Timeline(0); out != "(no events)\n" {
		t.Errorf("empty timeline = %q", out)
	}
	if out := rec.Gantt(40); out != "(no finished flows)\n" {
		t.Errorf("empty gantt = %q", out)
	}
	s := rec.Summarize(memsys.KindComm)
	if s.Flows != 0 || s.Finished != 0 || s.MinRate != 0 || s.MeanRate != 0 {
		t.Errorf("empty summary not zero: %+v", s)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty JSONL = %q, want no output", buf.String())
	}
}

func TestJSONLSchemaAndCount(t *testing.T) {
	rec := recordedRun(t)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != rec.EventCount() {
		t.Fatalf("JSONL lines = %d, want %d (one per event)", len(lines), rec.EventCount())
	}
	kinds := map[string]int{}
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i+1, err, line)
		}
		kind, _ := ev["kind"].(string)
		kinds[kind]++
		if _, ok := ev["at"]; !ok {
			t.Fatalf("line %d has no timestamp: %s", i+1, line)
		}
		switch kind {
		case "flow-start":
			for _, field := range []string{"flow", "stream", "node", "bytes"} {
				if _, ok := ev[field]; !ok {
					t.Errorf("flow-start line %d missing %q: %s", i+1, field, line)
				}
			}
		case "flow-end":
			for _, field := range []string{"flow", "rate"} {
				if _, ok := ev[field]; !ok {
					t.Errorf("flow-end line %d missing %q: %s", i+1, field, line)
				}
			}
		case "rate-change":
			if _, ok := ev["active"]; !ok {
				t.Errorf("rate-change line %d missing active: %s", i+1, line)
			}
		case "mark":
			if _, ok := ev["label"]; !ok {
				t.Errorf("mark line %d missing label: %s", i+1, line)
			}
		case "span-begin":
			// A flow span: identity plus the stream's attribution.
			for _, field := range []string{"span", "label", "cat", "flow", "stream", "node", "links"} {
				if _, ok := ev[field]; !ok {
					t.Errorf("span-begin line %d missing %q: %s", i+1, field, line)
				}
			}
		case "span-end":
			if _, ok := ev["span"]; !ok {
				t.Errorf("span-end line %d missing span: %s", i+1, line)
			}
		default:
			t.Errorf("line %d has unknown kind %q", i+1, kind)
		}
	}
	if kinds["flow-start"] != 2 || kinds["flow-end"] != 2 || kinds["mark"] != 1 ||
		kinds["span-begin"] != 2 || kinds["span-end"] != 2 {
		t.Errorf("kind histogram %v, want 2 starts, 2 ends, 1 mark, 2 span begins, 2 span ends", kinds)
	}
}

// TestJSONLDeterministic runs the identical seeded simulation twice; the
// traces must be byte-identical so runs can be diffed.
func TestJSONLDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := recordedRun(t).WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := recordedRun(t).WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("identical runs produced different traces:\n%s\nvs\n%s", a.String(), b.String())
	}
}
