// Package export renders evaluation results: fixed-width text tables for
// the terminal (Table II style), CSV series for plotting the figures, and
// JSON for programmatic reuse. Everything is stdlib-only.
//
// The artifacts are pinned byte for byte, so the fast renderers here
// promise the exact bytes of the slow standard paths they replace:
// AppendGBs (and so GBs and Pct) writes what fmt's %.2f writes, and
// MarshalIndent writes what json.Indent with a two-space indent writes
// over json.Marshal's output, plus a trailing newline. A differential test
// against fmt and the FuzzIndentJSON target against json.Indent guard
// both promises.
package export

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Table is a simple text/CSV table with a header row.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and columns.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Header))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV (header first, no title).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// String renders the text form.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.WriteText(&b); err != nil {
		return fmt.Sprintf("table render error: %v", err)
	}
	return b.String()
}

// WriteJSON pretty-prints any value as JSON, as MarshalIndent renders it.
func WriteJSON(w io.Writer, v any) error {
	data, err := MarshalIndent(v)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// MarshalIndent encodes v with encoding/json and indents it by two spaces
// per level, ending in a newline: the bytes a json.Encoder with
// SetIndent("", "  ") writes. encoding/json alone decides the values
// (struct tags, MarshalJSON methods, HTML escaping); only the indent pass
// is this package's own.
func MarshalIndent(v any) ([]byte, error) {
	src, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dst := appendIndent(make([]byte, 0, 2*len(src)), src)
	return append(dst, '\n'), nil
}

// appendIndent appends src, compact JSON as json.Marshal writes it, to
// dst as json.Indent(dst, src, "", "  ") would: one pass that copies the
// runs of bytes between structural characters, skips over strings
// (escapes included) and keeps empty objects and arrays compact.
func appendIndent(dst, src []byte) []byte {
	depth, run := 0, 0 // run: start of the bytes not yet copied
	for i := 0; i < len(src); i++ {
		if !structural[src[i]] {
			continue
		}
		switch src[i] {
		case '"':
			for i++; i < len(src) && src[i] != '"'; i++ {
				if src[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			if i+1 < len(src) && (src[i+1] == '}' || src[i+1] == ']') {
				i++
				continue
			}
			depth++
			dst = newline(append(dst, src[run:i+1]...), depth)
			run = i + 1
		case '}', ']':
			depth--
			dst = newline(append(dst, src[run:i]...), depth)
			run = i
		case ',':
			dst = newline(append(dst, src[run:i+1]...), depth)
			run = i + 1
		case ':':
			dst = append(append(dst, src[run:i+1]...), ' ')
			run = i + 1
		}
	}
	return append(dst, src[run:]...)
}

// structural marks the bytes appendIndent acts on; the loop skips the
// rest without entering its switch.
var structural = [256]bool{'"': true, '{': true, '[': true, '}': true, ']': true, ',': true, ':': true}

// indents is a newline and the indent of 16 levels, sliced for shallower
// ones.
const indents = "\n                                "

// newline appends a newline and depth levels of two-space indent.
func newline(dst []byte, depth int) []byte {
	if n := 1 + 2*depth; n <= len(indents) {
		return append(dst, indents[:n]...)
	}
	dst = append(dst, indents...)
	for depth -= len(indents) / 2; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// AppendGBs appends v with two decimals, exactly as fmt's %.2f formats
// it: v's binary value rounded half to even at the second decimal, with a
// minus sign on negative zero and on negatives that round to zero. The
// work is integer arithmetic on the mantissa; NaN, the infinities and
// magnitudes from 2^50 up go through strconv, as fmt does.
func AppendGBs(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	exp := int(b>>52) & 0x7ff
	if exp >= 1023+50 { // |v| ≥ 2^50, NaN and ±Inf
		return strconv.AppendFloat(dst, v, 'f', 2, 64)
	}
	mant := b & (1<<52 - 1)
	if exp == 0 {
		exp = 1 // subnormal
	} else {
		mant |= 1 << 52
	}
	// |v| = mant / 2^shift with shift ≥ 3, so 100|v| = x / 2^shift with
	// x < 2^60: the quotient, rounded half to even, is the value in
	// hundredths. From shift 61 up, x is below half and q stays 0.
	shift := uint(1075 - exp)
	x := mant * 100
	var q uint64
	if shift < 64 {
		q = x >> shift
		rem, half := x&(1<<shift-1), uint64(1)<<(shift-1)
		if rem > half || rem == half && q&1 == 1 {
			q++
		}
	}
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, q/100, 10)
	return append(dst, '.', byte('0'+q/10%10), byte('0'+q%10))
}

// Pct formats a percentage with two decimals, as in Table II.
func Pct(v float64) string {
	var buf [32]byte
	return string(append(AppendGBs(buf[:0], v), " %"...))
}

// GBs formats a bandwidth cell.
func GBs(v float64) string {
	var buf [32]byte
	return string(AppendGBs(buf[:0], v))
}
