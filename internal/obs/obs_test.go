package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("memcontention_test_ops_total", "ops", nil)
	c.Inc()
	c.Add(2.5)
	c.Add(-4) // ignored: counters only go up
	c.Add(math.NaN())
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	// Same name+labels returns the same instrument.
	if r.Counter("memcontention_test_ops_total", "ops", nil) != c {
		t.Error("re-registration returned a different counter")
	}
}

func TestGaugeBasics(t *testing.T) {
	var g *Gauge // nil: all ops must be no-ops
	g.Set(4)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge must read 0")
	}
	r := NewRegistry()
	g = r.Gauge("memcontention_test_depth", "depth", nil)
	g.Set(2)
	g.Add(-0.5)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
	g.SetMax(1.0) // lower: ignored
	g.SetMax(7)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge after SetMax = %v, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("memcontention_test_bw_gbps", "bw", []float64{1, 10, 100}, nil)
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 556.5; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
	bounds, cum, _, _ := h.snapshot()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("snapshot shape: %d bounds, %d buckets", len(bounds), len(cum))
	}
	// le=1: 0.5 and 1.0; le=10: +5.0; le=100: +50; +Inf: +500.
	want := []uint64{2, 3, 4, 5}
	for i, c := range cum {
		if c != want[i] {
			t.Errorf("cumulative[%d] = %d, want %d", i, c, want[i])
		}
	}
}

func TestNilRegistryHandsOutInertInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "", nil)
	g := r.Gauge("x", "", nil)
	h := r.Histogram("x_gbps", "", BandwidthBuckets(), nil)
	c.Inc()
	g.Set(1)
	h.Observe(1)
	if c != nil || g != nil || h != nil {
		t.Error("nil registry must return nil instruments")
	}
	if r.Len() != 0 {
		t.Error("nil registry must report 0 series")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Errorf("nil registry exposition must be empty, got %q", sb.String())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("memcontention_test_thing", "", nil)
	defer func() {
		if recover() == nil {
			t.Error("registering a counter name as a gauge must panic")
		}
	}()
	r.Gauge("memcontention_test_thing", "", nil)
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name must panic")
		}
	}()
	r.Counter("bad name!", "", nil)
}

func TestLabelsMakeDistinctSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Gauge("memcontention_test_mape_percent", "", L{"platform": "henri"})
	b := r.Gauge("memcontention_test_mape_percent", "", L{"platform": "dahu"})
	if a == b {
		t.Fatal("different label sets must be different series")
	}
	a.Set(1)
	b.Set(2)
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("memcontention_test_racy_total", "", nil)
			h := r.Histogram("memcontention_test_racy_gbps", "", BandwidthBuckets(), nil)
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 7))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("memcontention_test_racy_total", "", nil).Value(); got != 8000 {
		t.Errorf("counter = %v, want 8000", got)
	}
	if got := r.Histogram("memcontention_test_racy_gbps", "", nil, nil).Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1, 10, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if len(BandwidthBuckets()) != 13 || len(DurationBuckets()) != 10 {
		t.Error("default bucket layouts changed size")
	}
}

func TestManifestVersionAndAttach(t *testing.T) {
	r := NewRegistry()
	r.Counter("memcontention_test_ops_total", "", nil).Add(3)
	m := NewManifest("memmodel").AttachRegistry(r)
	if m.Tool != "memmodel" || m.Version == "" || m.Go == "" {
		t.Errorf("manifest incomplete: %+v", m)
	}
	if len(m.Instruments) != 1 || m.Instruments[0].Value != 3 {
		t.Errorf("instrument snapshot wrong: %+v", m.Instruments)
	}
	var sb strings.Builder
	if err := m.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"tool": "memmodel"`) {
		t.Errorf("manifest JSON missing tool: %s", sb.String())
	}
}
