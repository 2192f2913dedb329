// Package plot renders small ASCII line charts — enough to eyeball the
// paper's figures in a terminal: measured points as markers, model
// predictions as lines, two Y series (communications and computations)
// per subplot, like the paper's dual-axis panels.
package plot

import (
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// Series is one curve: Y values indexed by X = 1..len(Y).
type Series struct {
	Name string
	Y    []float64
	// Marker draws the series points ('o', '+', …).
	Marker byte
}

// Chart is a fixed-size character canvas with axes.
type Chart struct {
	Title  string
	Width  int // plot area columns (default 60)
	Height int // plot area rows (default 12)
	series []Series
	yMax   float64 // 0 = auto
}

// New creates a chart.
func New(title string) *Chart {
	return &Chart{Title: title, Width: 60, Height: 12}
}

// YMax fixes the Y scale (0 reverts to auto).
func (c *Chart) YMax(v float64) *Chart { c.yMax = v; return c }

// Add appends a series. Series with nil/empty Y are ignored at render.
func (c *Chart) Add(s Series) *Chart {
	c.series = append(c.series, s)
	return c
}

// Render draws the chart (see Append).
func (c *Chart) Render() string { return string(c.Append(nil)) }

// Append draws the chart into dst: the title line when there is one, the
// plot area with the Y labels (%7.1f: the headroomed maximum, its half
// and 0) on the left axis, the X axis, its n=1…n=N labels and the
// legend. A marker byte is drawn as is on the canvas but as the rune of
// that value (UTF-8) in the legend. A chart with no positive value says
// "(no data)".
func (c *Chart) Append(dst []byte) []byte {
	w, h := c.Width, c.Height
	if w < 16 {
		w = 16
	}
	if h < 4 {
		h = 4
	}
	nMax, yMax := 0, c.yMax
	for _, s := range c.series {
		if len(s.Y) > nMax {
			nMax = len(s.Y)
		}
		if c.yMax == 0 {
			for _, v := range s.Y {
				if v > yMax {
					yMax = v
				}
			}
		}
	}
	if nMax == 0 || yMax <= 0 {
		return append(append(dst, c.Title...), "\n(no data)\n"...)
	}
	yMax *= 1.05 // headroom

	var stack [60 * 12]byte
	grid := stack[:0]
	if w*h > len(stack) {
		grid = make([]byte, 0, w*h)
	}
	for range w * h {
		grid = append(grid, ' ')
	}
	// X position of point i (0-based) spread over the width.
	xCol := func(i int) int {
		if nMax == 1 {
			return 0
		}
		return i * (w - 1) / (nMax - 1)
	}
	yRow := func(v float64) int {
		r := h - 1 - int(math.Round(v/yMax*float64(h-1)))
		if r < 0 {
			r = 0
		}
		if r >= h {
			r = h - 1
		}
		return r
	}
	legend := 0 // the legend's bytes past its indent
	for _, s := range c.series {
		if len(s.Y) == 0 {
			continue
		}
		marker := markerOf(s)
		legend += len("   ") + utf8.RuneLen(rune(marker)) + 1 + len(s.Name)
		prevCol, prevRow := -1, -1
		for i, v := range s.Y {
			col, row := xCol(i), yRow(v)
			// Connect with a crude vertical interpolation so lines
			// read as lines.
			if prevCol >= 0 {
				for cc := prevCol + 1; cc < col; cc++ {
					t := float64(cc-prevCol) / float64(col-prevCol)
					rr := int(math.Round(float64(prevRow) + t*float64(row-prevRow)))
					if grid[rr*w+cc] == ' ' {
						grid[rr*w+cc] = '.'
					}
				}
			}
			grid[row*w+col] = marker
			prevCol, prevRow = col, row
		}
	}

	// The top label is the longest: yMax/2 and 0 have no more digits.
	var num [24]byte
	label := max(len(strconv.AppendFloat(num[:0], yMax, 'f', 1, 64)), 7) + 1
	dst = slices.Grow(dst, len(c.Title)+1+
		h*(label+len("│")+w+1)+ // plot area
		len("        └")+len("─")*w+1+ // X axis
		len("         n=1")+w+len("n=")+20+1+ // its labels
		len("         ")+legend+1)
	if c.Title != "" {
		dst = append(append(dst, c.Title...), '\n')
	}
	for r := range h {
		switch r {
		case 0:
			dst = appendLabel(dst, yMax)
		case h - 1:
			dst = appendLabel(dst, 0)
		case (h - 1) / 2:
			dst = appendLabel(dst, yMax/2)
		default:
			dst = append(dst, "        "...)
		}
		dst = append(append(append(dst, "│"...), grid[r*w:(r+1)*w]...), '\n')
	}
	dst = append(dst, "        └"...)
	for range w {
		dst = append(dst, "─"...)
	}
	dst = append(dst, "\n         n=1"...)
	digits := len(strconv.AppendInt(num[:0], int64(nMax), 10))
	for range max(1, w-8-digits) {
		dst = append(dst, ' ')
	}
	dst = append(strconv.AppendInt(append(dst, "n="...), int64(nMax), 10), '\n')
	if legend > 0 {
		dst = append(dst, "         "...)
		sep := false
		for _, s := range c.series {
			if len(s.Y) == 0 {
				continue
			}
			if sep {
				dst = append(dst, "   "...)
			}
			sep = true
			dst = append(append(utf8.AppendRune(dst, rune(markerOf(s))), ' '), s.Name...)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// markerOf is the series' marker, '*' when unset.
func markerOf(s Series) byte {
	if s.Marker == 0 {
		return '*'
	}
	return s.Marker
}

// appendLabel appends a Y-axis label as fmt's "%7.1f " writes it: one
// decimal, right-aligned in at least 7 columns, then a space.
func appendLabel(dst []byte, v float64) []byte {
	var num [24]byte
	f := strconv.AppendFloat(num[:0], v, 'f', 1, 64)
	for pad := 7 - len(f); pad > 0; pad-- {
		dst = append(dst, ' ')
	}
	return append(append(dst, f...), ' ')
}
