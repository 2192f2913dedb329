package export

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// checkTableRef fails t unless AppendText, WriteText and String render tab
// exactly as the reference renderer does.
func checkTableRef(t *testing.T, tab *Table) {
	t.Helper()
	var want bytes.Buffer
	if err := WriteTextRef(tab, &want); err != nil {
		t.Fatal(err)
	}
	got, err := tab.AppendText([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "x"+want.String() {
		t.Fatalf("AppendText:\n%q\nreference:\n%q", got[1:], want.String())
	}
	var w strings.Builder
	if err := tab.WriteText(&w); err != nil || w.String() != want.String() {
		t.Fatalf("WriteText = %q, %v; reference %q", w.String(), err, want.String())
	}
	if s := tab.String(); s != want.String() {
		t.Fatalf("String = %q; reference %q", s, want.String())
	}
}

// TestTableTextMatchesReference: multi-byte cells keep the reference's
// byte-counted widths and rune-counted padding, and empty, over-wide and
// short rows, a table without rows and an untitled one render the same;
// then random tables do.
func TestTableTextMatchesReference(t *testing.T) {
	tabs := []*Table{
		sampleTable(),
		{Title: "multi-byte", Header: []string{"δl", "α", "meaning"}, Rows: [][]string{
			{"1.586", "0.239", "comp ∥ comm"}, {"δr × 2", "", "N_par_max→N_seq_max"}, {"", "ü", ""}}},
		{Header: []string{"", "x"}, Rows: [][]string{{"", ""}, {"a much wider cell than its header", "y"}, {"short"}}},
		{Title: "no rows", Header: []string{"one"}},
	}
	for _, tab := range tabs {
		checkTableRef(t, tab)
	}
	cells := []string{"", "a", "ab", "abcdefghij", "δ", "×2", "∥ comm", "α≈0.239", "ü", "日本語", "\xff", " spaced "}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		tab := &Table{Header: make([]string, 1+rng.Intn(6))}
		if rng.Intn(2) == 0 {
			tab.Title = cells[rng.Intn(len(cells))] + " title"
		}
		for j := range tab.Header {
			tab.Header[j] = cells[rng.Intn(len(cells))]
		}
		for r := rng.Intn(6); r > 0; r-- {
			row := make([]string, rng.Intn(len(tab.Header)+1))
			for j := range row {
				row[j] = cells[rng.Intn(len(cells))] + strings.Repeat("-", rng.Intn(3)*rng.Intn(12))
			}
			tab.Rows = append(tab.Rows, row)
		}
		checkTableRef(t, tab)
	}
}

// TestAppendTextMalformed: a row with more cells than the header, which
// the exported Rows admit, is an error, not a panic, and a table without
// columns renders empty lines where the reference panicked.
func TestAppendTextMalformed(t *testing.T) {
	tab := NewTable("t", "a", "b")
	tab.Rows = append(tab.Rows, []string{"1", "2", "3"})
	var b strings.Builder
	if err := tab.WriteText(&b); err == nil || !strings.Contains(err.Error(), "row 0 has 3 cells") {
		t.Fatalf("WriteText of a 3-cell row under a 2-cell header: %v, want an error", err)
	}
	if b.Len() != 0 {
		t.Errorf("a failed WriteText wrote %q", b.String())
	}
	if s := tab.String(); !strings.Contains(s, "table render error") {
		t.Errorf("String = %q", s)
	}
	if s := (&Table{Title: "no columns"}).String(); s != "no columns\n\n\n" {
		t.Errorf("a table without columns renders %q", s)
	}
}

// TestAppendTextAllocs: a table of up to 16 columns renders without
// allocating when dst has room: the column widths stay on the stack.
func TestAppendTextAllocs(t *testing.T) {
	tab := sampleTable()
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(20, func() { _, _ = tab.AppendText(buf[:0]) }); n != 0 {
		t.Errorf("AppendText into a large enough buffer allocates %v times, want 0", n)
	}
}

// TestAddRowBlocks: rows cut from a table's block of cells are as wide as
// the header, padded or cut, and independent of each other; rows reserved
// with Grow are added without allocating.
func TestAddRowBlocks(t *testing.T) {
	tab := NewTable("", "a", "b", "c")
	for i := 0; i < 9; i++ {
		tab.AddRow(strings.Repeat("x", i), "y", "z", "dropped")
	}
	tab.AddRow("short")
	tab.Rows[0] = append(tab.Rows[0], "appended")
	for i, row := range tab.Rows[1:] {
		if len(row) != 3 {
			t.Fatalf("row %d holds %d cells, want 3", i+1, len(row))
		}
	}
	if got := tab.Rows[1][0]; got != "x" {
		t.Errorf("appending to row 0 changed row 1 to start with %q", got)
	}
	if got := tab.Rows[9]; got[0] != "short" || got[1] != "" || got[2] != "" {
		t.Errorf("short row stored as %q", got)
	}
	sized := NewTable("", "a", "b")
	if n := testing.AllocsPerRun(1, func() {
		sized.Rows, sized.free = nil, nil
		sized.Grow(50)
		for i := 0; i < 50; i++ {
			sized.AddRow("1", "2")
		}
	}); n != 2 {
		t.Errorf("Grow(50) and 50 rows allocate %v times, want 2: the rows and one block of cells", n)
	}
}
