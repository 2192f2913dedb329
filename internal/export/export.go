// Package export renders evaluation results: fixed-width text tables for
// the terminal (Table II style), CSV series for plotting the figures, and
// JSON for programmatic reuse. Everything is stdlib-only.
//
// The artifacts are pinned byte for byte, so the fast renderers here
// promise the exact bytes of the slow standard paths they replace:
//   - AppendGBs (and so GBs and Pct) writes what fmt's %.2f writes;
//   - MarshalIndent writes what json.Indent with a two-space indent writes
//     over json.Marshal's output, plus a trailing newline;
//   - a JSONAppender appends that same indented JSON itself, built from
//     AppendJSONFloat, AppendJSONString and AppendJSONNewline, with no
//     reflection, so MarshalIndent (and WriteJSON) of such a value, or of
//     a slice of them, still equals json.Marshal plus json.Indent;
//   - Table.AppendText writes what fmt's %-*s wrote cell by cell.
//
// A differential test against fmt and the FuzzIndentJSON target against
// json.Indent guard the first two. TestAppendJSONMatchesStdlib and
// FuzzAppendJSON (package eval, over evaluation result trees) guard the
// third, and the fmt-based reference renderer of reference_test.go guards
// the table text.
package export

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"
)

// Table is a simple text/CSV table with a header row.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// free is the unused tail of the block of cells AddRow cuts rows
	// from: one block per table when its rows are reserved with Grow.
	free []string
}

// NewTable creates a table with the given title and columns.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Grow makes room for n more rows, so that adding them allocates
// nothing: a caller that knows its row count sizes the table with it.
func (t *Table) Grow(n int) {
	if cap(t.Rows)-len(t.Rows) < n {
		t.Rows = append(make([][]string, 0, len(t.Rows)+n), t.Rows...)
	}
	if cells := n * len(t.Header); len(t.free) < cells {
		t.free = make([]string, cells)
	}
}

// AddRow appends a row of len(Header) cells: short rows are padded with
// empty cells, cells past the header's are dropped. Rows not reserved
// with Grow come from blocks that double the table's rows.
func (t *Table) AddRow(cells ...string) {
	n := len(t.Header)
	if len(t.free) < n {
		t.free = make([]string, n*max(4, len(t.Rows)))
	}
	row := t.free[:n:n]
	t.free = t.free[n:]
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// WriteText renders the table with aligned columns (see AppendText) in
// one write.
func (t *Table) WriteText(w io.Writer) error {
	b, err := t.AppendText(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendText appends the table's text form to dst: the title line when
// there is one, the header, a rule of dashes and the rows, cells
// separated by two spaces. A cell is padded with spaces to its column's
// width as fmt's %-*s pads it: the widths count bytes (len) but the
// padding counts runes, so a cell holding a multi-byte character (×, δ,
// α, ∥) keeps one or two extra trailing spaces. Short rows end early; a
// row with more cells than the header is an error.
func (t *Table) AppendText(dst []byte) ([]byte, error) {
	var stack [16]int
	widths := stack[:0]
	// extra counts the bytes past one per rune, which the padding does
	// not make up for.
	extra := 0
	for _, h := range t.Header {
		widths = append(widths, len(h))
		extra += len(h) - utf8.RuneCountInString(h)
	}
	for i, row := range t.Rows {
		if len(row) > len(widths) {
			return dst, fmt.Errorf("export: table %q: row %d has %d cells, the header %d", t.Title, i, len(row), len(widths))
		}
		for j, c := range row {
			widths[j] = max(widths[j], len(c))
			extra += len(c) - utf8.RuneCountInString(c)
		}
	}
	total := 0 // every column's width and gap: a full line is total-1 bytes, newline included, plus its extra
	for _, w := range widths {
		total += w + 2
	}
	size := len(t.Title) + 1 + (len(t.Rows)+2)*(total+1) + extra
	dst = slices.Grow(dst, size)
	if t.Title != "" {
		dst = append(append(dst, t.Title...), '\n')
	}
	dst = appendRow(dst, t.Header, widths)
	for range total - 2 {
		dst = append(dst, '-')
	}
	dst = append(dst, '\n')
	for _, row := range t.Rows {
		dst = appendRow(dst, row, widths)
	}
	return dst, nil
}

// appendRow appends one line of cells, each padded as AppendText pads it.
func appendRow(dst []byte, cells []string, widths []int) []byte {
	for i, c := range cells {
		if i > 0 {
			dst = append(dst, "  "...)
		}
		dst = append(dst, c...)
		for pad := widths[i] - utf8.RuneCountInString(c); pad > 0; pad-- {
			dst = append(dst, ' ')
		}
	}
	return append(dst, '\n')
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
	b, err := t.AppendText(nil)
	if err != nil {
		return fmt.Sprintf("table render error: %v", err)
	}
	return string(b)
}

// WriteJSON pretty-prints any value as JSON, as MarshalIndent renders it.
// A JSONAppender, or a slice of them, written to a *bytes.Buffer is
// appended straight into the buffer's free space, grown to JSONSize's
// bound, instead of into a slice of its own that the buffer then copies.
func WriteJSON(w io.Writer, v any) error {
	if b, ok := w.(*bytes.Buffer); ok {
		if size, ok := appenderSize(v); ok {
			b.Grow(size)
			dst, err := appendAppender(b.AvailableBuffer(), v)
			if err != nil {
				return err
			}
			_, err = b.Write(dst)
			return err
		}
	}
	data, err := MarshalIndent(v)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// MarshalIndent encodes v as JSON indented by two spaces per level,
// ending in a newline: the bytes a json.Encoder with SetIndent("", "  ")
// writes. A JSONAppender, or a slice whose element type is one, appends
// its own JSON into one buffer sized by JSONSize. Any other value goes
// through json.Marshal, which alone decides the values (struct tags,
// MarshalJSON methods, HTML escaping), and then this package's indent
// pass.
func MarshalIndent(v any) ([]byte, error) {
	if size, ok := appenderSize(v); ok {
		return appendAppender(make([]byte, 0, size), v)
	}
	src, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dst := appendIndent(make([]byte, 0, 2*len(src)), src)
	return append(dst, '\n'), nil
}

// JSONAppender is a value that writes its own JSON: the bytes
// MarshalIndent writes for it through json.Marshal and the indent pass,
// without the final newline.
type JSONAppender interface {
	// AppendJSON appends the value's JSON to dst as it sits at nesting
	// depth: its inner lines indented by depth+1 levels, its closing
	// bracket by depth. NaN and ±Inf are an error, as for json.Marshal.
	AppendJSON(dst []byte, depth int) ([]byte, error)
	// JSONSize bounds the bytes AppendJSON appends at depth.
	JSONSize(depth int) int
}

var appenderType = reflect.TypeFor[JSONAppender]()

// appenderSize bounds the bytes appendAppender appends for v, and
// reports whether v is a JSONAppender or a slice whose element type is
// one; only then does appendAppender render it.
func appenderSize(v any) (int, bool) {
	if a, ok := v.(JSONAppender); ok {
		return a.JSONSize(0) + 1, true
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Slice || !rv.Type().Elem().Implements(appenderType) {
		return 0, false
	}
	size := len("null\n")
	for i := range rv.Len() {
		size += len(",\n  ") + len("null")
		if a := appenderAt(rv, i); a != nil {
			size += a.JSONSize(1)
		}
	}
	return size, true
}

// appendAppender appends MarshalIndent's bytes for v, a JSONAppender or
// a slice of them, to dst. A slice is null when nil, [] when empty, else
// one element per line; a nil element, a nil interface or pointer,
// writes null, as json.Marshal does.
func appendAppender(dst []byte, v any) ([]byte, error) {
	if a, ok := v.(JSONAppender); ok {
		dst, err := a.AppendJSON(dst, 0)
		if err != nil {
			return nil, err
		}
		return append(dst, '\n'), nil
	}
	rv := reflect.ValueOf(v)
	switch {
	case rv.IsNil():
		return append(dst, "null\n"...), nil
	case rv.Len() == 0:
		return append(dst, "[]\n"...), nil
	}
	dst = append(dst, '[')
	for i := range rv.Len() {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONNewline(dst, 1)
		a := appenderAt(rv, i)
		if a == nil {
			dst = append(dst, "null"...)
			continue
		}
		var err error
		if dst, err = a.AppendJSON(dst, 1); err != nil {
			return nil, err
		}
	}
	return append(AppendJSONNewline(dst, 0), ']', '\n'), nil
}

// appenderAt returns element i of a slice of JSONAppenders, nil for a
// nil element.
func appenderAt(rv reflect.Value, i int) JSONAppender {
	a, _ := rv.Index(i).Interface().(JSONAppender)
	return a
}

// AppendJSONFloat appends v as json.Marshal encodes a float64: the
// shortest decimal that reads back as v, in 'e' notation below 1e-6 and
// from 1e21, with the leading zero of a one-digit negative exponent
// dropped (1e-07 becomes 1e-7); -0 stays -0. NaN and ±Inf append nothing
// and return json.Marshal's error for them.
func AppendJSONFloat(dst []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// AppendJSONString appends s quoted as json.Marshal quotes it. Printable
// ASCII other than the quote, the backslash and the HTML-sensitive <, >
// and & is copied as is; any other string is rare here and goes through
// json.Marshal, which escapes it and replaces invalid UTF-8.
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// JSONStringSize bounds the bytes AppendJSONString appends for s: six per
// byte (\u00XX) and the quotes.
func JSONStringSize(s string) int { return 6*len(s) + 2 }

// AppendJSONNewline appends a newline and depth levels of two-space
// indent: where MarshalIndent starts each field or element of a
// non-empty object or array, and its closing bracket.
func AppendJSONNewline(dst []byte, depth int) []byte {
	if n := 1 + 2*depth; n <= len(indents) {
		return append(dst, indents[:n]...)
	}
	dst = append(dst, indents...)
	for depth -= len(indents) / 2; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
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
			dst = AppendJSONNewline(append(dst, src[run:i+1]...), depth)
			run = i + 1
		case '}', ']':
			depth--
			dst = AppendJSONNewline(append(dst, src[run:i]...), depth)
			run = i
		case ',':
			dst = AppendJSONNewline(append(dst, src[run:i+1]...), depth)
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
// ones by AppendJSONNewline.
const indents = "\n                                "

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
