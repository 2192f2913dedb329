package plot

import (
	"fmt"
	"math"
	"strings"
)

// RenderRef is the chart renderer Append replaced, kept verbatim as the
// reference it must reproduce byte for byte: fmt's %7.1f labels and %c
// legend markers, a row slice per canvas line. It is exported for the
// package's external tests.
func RenderRef(c *Chart) string {
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
		return c.Title + "\n(no data)\n"
	}
	yMax *= 1.05 // headroom

	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
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
	for _, s := range c.series {
		if len(s.Y) == 0 {
			continue
		}
		marker := s.Marker
		if marker == 0 {
			marker = '*'
		}
		prevCol, prevRow := -1, -1
		for i, v := range s.Y {
			col, row := xCol(i), yRow(v)
			// Connect with a crude vertical interpolation so lines
			// read as lines.
			if prevCol >= 0 {
				for cc := prevCol + 1; cc < col; cc++ {
					t := float64(cc-prevCol) / float64(col-prevCol)
					rr := int(math.Round(float64(prevRow) + t*float64(row-prevRow)))
					if grid[rr][cc] == ' ' {
						grid[rr][cc] = '.'
					}
				}
			}
			grid[row][col] = marker
			prevCol, prevRow = col, row
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	for r, line := range grid {
		label := "        "
		switch r {
		case 0:
			label = fmt.Sprintf("%7.1f ", yMax)
		case h - 1:
			label = fmt.Sprintf("%7.1f ", 0.0)
		case (h - 1) / 2:
			label = fmt.Sprintf("%7.1f ", yMax/2)
		}
		fmt.Fprintf(&b, "%s│%s\n", label, string(line))
	}
	fmt.Fprintf(&b, "        └%s\n", strings.Repeat("─", w))
	fmt.Fprintf(&b, "         n=1%sn=%d\n", strings.Repeat(" ", max(1, w-8-len(fmt.Sprint(nMax)))), nMax)
	var legend []string
	for _, s := range c.series {
		if len(s.Y) == 0 {
			continue
		}
		marker := s.Marker
		if marker == 0 {
			marker = '*'
		}
		legend = append(legend, fmt.Sprintf("%c %s", marker, s.Name))
	}
	if len(legend) > 0 {
		fmt.Fprintf(&b, "         %s\n", strings.Join(legend, "   "))
	}
	return b.String()
}
