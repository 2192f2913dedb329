package export

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := NewTable("Title line", "name", "value", "unit")
	t.AddRow("alpha", "1.25", "GB/s")
	t.AddRow("beta", "0.5")
	return t
}

func TestWriteText(t *testing.T) {
	var b strings.Builder
	if err := sampleTable().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, rule, 2 rows => 5? title+header+rule+2
		if len(lines) != 5 {
			t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
		}
	}
	if !strings.HasPrefix(out, "Title line\n") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "GB/s") {
		t.Error("cells missing")
	}
	// Columns aligned: header "name" padded to width of "alpha".
	headerLine := lines[1]
	if !strings.HasPrefix(headerLine, "name ") {
		t.Errorf("header not padded: %q", headerLine)
	}
	// Short rows padded with empty cells (no panic, row present).
	if !strings.Contains(out, "beta") {
		t.Error("short row missing")
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	if err := sampleTable().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("CSV records = %d, want 3 (header + 2 rows)", len(recs))
	}
	if recs[0][0] != "name" || recs[1][0] != "alpha" {
		t.Error("CSV content wrong")
	}
	if len(recs[2]) != 3 || recs[2][2] != "" {
		t.Error("short rows must be padded in CSV too")
	}
}

func TestTableString(t *testing.T) {
	if s := sampleTable().String(); !strings.Contains(s, "alpha") {
		t.Errorf("String() = %q", s)
	}
}

func TestWriteJSON(t *testing.T) {
	var b strings.Builder
	if err := WriteJSON(&b, map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	var back map[string]int
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back["x"] != 1 {
		t.Error("JSON round trip failed")
	}
	if !strings.Contains(b.String(), "\n") {
		t.Error("JSON must be indented")
	}
}

func TestFormatters(t *testing.T) {
	if Pct(3.456) != "3.46 %" {
		t.Errorf("Pct = %q", Pct(3.456))
	}
	for _, v := range []float64{0, 2.675, -0.001, 100, math.NaN()} {
		if got, want := Pct(v), fmt.Sprintf("%.2f %%", v); got != want {
			t.Errorf("Pct(%v) = %q, want %q", v, got, want)
		}
	}
	if GBs(10.125) != "10.12" { // 10.125 is exact in binary: the tie rounds to even
		t.Errorf("GBs = %q", GBs(10.125))
	}
}

// TestExportersByteStable renders every Table writer (and the shared JSON
// helper over a map payload) twice; identical input must yield identical
// bytes, so map-iteration order can never leak into an artifact.
func TestExportersByteStable(t *testing.T) {
	twice := func(name string, fn func(*strings.Builder) error) {
		t.Helper()
		var a, b strings.Builder
		if err := fn(&a); err != nil {
			t.Fatalf("%s first pass: %v", name, err)
		}
		if err := fn(&b); err != nil {
			t.Fatalf("%s second pass: %v", name, err)
		}
		if a.String() != b.String() {
			t.Errorf("%s is not byte-stable:\n%s\nvs\n%s", name, a.String(), b.String())
		}
	}
	tab := sampleTable()
	twice("WriteText", func(b *strings.Builder) error { return tab.WriteText(b) })
	twice("WriteCSV", func(b *strings.Builder) error { return tab.WriteCSV(b) })
	twice("WriteJSON(map)", func(b *strings.Builder) error {
		return WriteJSON(b, map[string]float64{"zeta": 1, "alpha": 2, "mid": 3})
	})
}
