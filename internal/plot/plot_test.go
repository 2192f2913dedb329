package plot

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestRenderBasics(t *testing.T) {
	ch := New("test chart").
		Add(Series{Name: "measured", Y: []float64{1, 2, 3, 4, 5}, Marker: 'o'}).
		Add(Series{Name: "predicted", Y: []float64{1, 2, 3, 4, 4.5}, Marker: '+'})
	out := ch.Render()
	for _, want := range []string{"test chart", "o measured", "+ predicted", "└", "n=1", "n=5"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Markers present on canvas.
	if !strings.Contains(out, "o") || !strings.Contains(out, "+") {
		t.Error("markers not drawn")
	}
}

func TestRenderEmpty(t *testing.T) {
	if out := New("empty").Render(); !strings.Contains(out, "no data") {
		t.Errorf("empty chart must say so: %q", out)
	}
	if out := New("zeros").Add(Series{Y: []float64{0, 0}}).Render(); !strings.Contains(out, "no data") {
		t.Errorf("all-zero chart must say so: %q", out)
	}
}

func TestRenderScale(t *testing.T) {
	// A fixed YMax changes the axis label.
	out := New("scaled").YMax(100).Add(Series{Y: []float64{10, 20}}).Render()
	if !strings.Contains(out, "105.0") { // 100 × 1.05 headroom
		t.Errorf("fixed scale not applied:\n%s", out)
	}
}

func TestMonotoneSeriesDrawsMonotone(t *testing.T) {
	// The marker of the max value must sit on a higher row than the min.
	out := New("").Add(Series{Y: []float64{1, 10}, Marker: 'x'}).Render()
	lines := strings.Split(out, "\n")
	firstRow, lastRow := -1, -1
	for i, l := range lines {
		if strings.Contains(l, "x") {
			if firstRow == -1 {
				firstRow = i
			}
			lastRow = i
		}
	}
	if firstRow == -1 || firstRow == lastRow {
		t.Fatalf("markers not found on distinct rows:\n%s", out)
	}
}

func TestTinyDimensionsClamped(t *testing.T) {
	ch := New("tiny")
	ch.Width, ch.Height = 1, 1
	out := ch.Add(Series{Y: []float64{1, 2, 3}}).Render()
	if !strings.Contains(out, "└") {
		t.Error("clamped chart must still render axes")
	}
}

func TestSingularPoint(t *testing.T) {
	out := New("one").Add(Series{Y: []float64{5}, Marker: '#'}).Render()
	if !strings.Contains(out, "#") {
		t.Error("single point must render")
	}
}

// checkRef fails t unless Render and Append draw c exactly as the
// reference renderer does.
func checkRef(t *testing.T, name string, c *Chart) {
	t.Helper()
	want := RenderRef(c)
	if got := c.Render(); got != want {
		t.Fatalf("%s: Render:\n%s\nreference:\n%s", name, got, want)
	}
	if got := string(c.Append([]byte("x"))); got != "x"+want {
		t.Fatalf("%s: Append after a prefix:\n%q\nreference:\n%q", name, got, want)
	}
}

// TestRenderMatchesReference: charts with NaN, infinite, negative, flat,
// empty and single-point series, non-ASCII and unset markers, a fixed
// scale (NaN included), tiny, odd and large canvases and titles with
// multi-byte runes draw the reference's bytes, then so do random charts.
func TestRenderMatchesReference(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]*Chart{
		"nan":        New("nan").Add(Series{Name: "a", Y: []float64{1, nan, 3, nan}, Marker: 'o'}),
		"all-nan":    New("all nan").Add(Series{Y: []float64{nan, nan}}),
		"inf":        New("inf").Add(Series{Name: "a", Y: []float64{1, inf, 2}}).Add(Series{Name: "b", Y: []float64{-inf, 3}}),
		"negative":   New("neg").Add(Series{Name: "n", Y: []float64{-5, -1, 2, -8}, Marker: '-'}),
		"flat":       New("flat").Add(Series{Name: "f", Y: []float64{4, 4, 4, 4, 4, 4}, Marker: '='}),
		"no-data":    New("").Add(Series{Y: []float64{-1, 0}}),
		"empty":      New("").Add(Series{Name: "e"}).Add(Series{Name: "x", Y: []float64{2}}),
		"non-ascii":  New("δ × ∥ — α").Add(Series{Name: "µ", Y: []float64{1, 2, 3}, Marker: 0xe9}).Add(Series{Name: "ü", Y: []float64{3, 2, 1}, Marker: 0x80}),
		"fixed":      New("fixed").YMax(7).Add(Series{Name: "a", Y: []float64{1, 9, 3}}),
		"fixed-nan":  New("fixed nan").YMax(nan).Add(Series{Name: "a", Y: []float64{1, 2}}),
		"huge":       New("huge").Add(Series{Name: "h", Y: []float64{1e300, 1}}),
		"one-series": New("one").Add(Series{Name: "s", Y: []float64{5}, Marker: '#'}),
	}
	for name, c := range cases {
		checkRef(t, name, c)
	}
	for _, dims := range [][2]int{{1, 1}, {16, 4}, {17, 5}, {61, 13}, {200, 40}} {
		c := New("dims").Add(Series{Name: "a", Y: []float64{3, 1, 4, 1, 5, 9, 2, 6}})
		c.Width, c.Height = dims[0], dims[1]
		checkRef(t, fmt.Sprint(dims), c)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		c := New(fmt.Sprintf("random %d", i))
		c.Width, c.Height = rng.Intn(90), rng.Intn(30)
		if rng.Intn(4) == 0 {
			c.YMax(rng.Float64() * 50)
		}
		for s := rng.Intn(4); s > 0; s-- {
			ys := make([]float64, rng.Intn(40))
			for k := range ys {
				switch rng.Intn(12) {
				case 0:
					ys[k] = math.NaN()
				case 1:
					ys[k] = -rng.Float64() * 10
				default:
					ys[k] = rng.Float64() * 100
				}
			}
			c.Add(Series{Name: fmt.Sprint("s", s), Y: ys, Marker: byte(rng.Intn(256))})
		}
		checkRef(t, c.Title, c)
	}
}

// TestAppendAllocs: a chart of the default size draws without allocating
// when dst has room.
func TestAppendAllocs(t *testing.T) {
	c := New("allocs").Add(Series{Name: "a", Y: []float64{1, 2, 3, 4}}).Add(Series{Name: "b", Y: []float64{4, 3, 2}})
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(20, func() { c.Append(buf[:0]) }); n != 0 {
		t.Errorf("Chart.Append allocates %v times, want 0", n)
	}
}
