package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"
)

// hist holds n ops taking 1, 2, ..., n ms.
func hist(n int) *latencyHist {
	h := &latencyHist{}
	for i := 1; i <= n; i++ {
		h.add(float64(i) * 1e-3)
	}
	return h
}

func TestPercentileNearestRank(t *testing.T) {
	h := hist(100)
	for _, c := range []struct {
		q      float64
		v      float64
		beyond int64
	}{{0.5, 50e-3, 50}, {0.9, 90e-3, 10}, {0.99, 99e-3, 1}, {1, 100e-3, 0}} {
		v, beyond := h.percentile(c.q)
		if math.Abs(v-c.v) > 0.01*c.v || beyond != c.beyond {
			t.Errorf("p%g of 1..100 ms = %v s with %d beyond, want %v s (±1 %%) with %d", c.q*100, v, beyond, c.v, c.beyond)
		}
	}
	if m := h.mean(); math.Abs(m-50.5e-3) > 1e-12 {
		t.Errorf("mean of 1..100 ms = %v s, want 0.0505 s", m)
	}
	var one latencyHist
	one.add(7e-3)
	if v, _ := one.percentile(0.9); math.Abs(v-7e-3) > 0.01*7e-3 {
		t.Errorf("p90 of one 7 ms op = %v s", v)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{{99, 0.9, false}, {100, 0.9, true}, {999, 0.99, false}, {1000, 0.99, true}} {
		_, err := hist(c.n).tailPercentile(c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d ops: err %v, want ok=%v", c.q*100, c.n, err, c.ok)
		}
	}
	if minOps*(1-0.9) < minBeyond {
		t.Errorf("minOps %d leaves fewer than %d ops beyond p90", minOps, minBeyond)
	}
}

func TestFailedRatioAndBase(t *testing.T) {
	r := failedRatio(200, 3)
	if r.value() != 0.015 || r.String() != "0.015 (3 / 200)" {
		t.Errorf("failedRatio(200, 3) = %v, %q", r.value(), r)
	}
	if r := failedRatio(0, 0); r.value() != 0 {
		t.Errorf("failedRatio(0, 0) = %v, want 0", r.value())
	}
	if got := (ratio{num: 36, base: 96}).String(); got != "0.375 (36 / 96)" {
		t.Errorf("ratio 36/96 prints %q", got)
	}
	if got := (ratio{num: 9.3027, base: 108.88}).String(); got != "0.0854399 (9.3027 / 108.88)" {
		t.Errorf("ratio 9.3027/108.88 prints %q", got)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 0, Name: "op.x", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 0, Name: "a.f", Start: 10, End: 30},
		{ID: 3, Parent: 1, Op: 0, Name: "a.f", Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Op: 0, Name: "b.g", Start: 90, End: 120}, // ends after its parent
		{ID: 5, Parent: 3, Op: 0, Name: "c.h", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[string]float64{"op.x": 50e-9, "a.f": 20e-9 + 20e-9, "b.g": 30e-9, "c.h": 10e-9}
	for name, w := range want {
		if d := self[name] - w; d > 1e-18 || d < -1e-18 {
			t.Errorf("self time of %s = %v s, want %v s", name, self[name], w)
		}
	}
}

// A wrong pinned digest makes every op fail, and the run goes on counting
// them instead of stopping.
func TestWrongDigestIsAFailedOp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs paper-testbed ops")
	}
	p := &paperTestbed{}
	if err := p.setUp(1, nil); err != nil {
		t.Fatal(err)
	}
	pinned := make(map[string]string, len(p.pinned))
	for k, v := range p.pinned {
		pinned[k] = v
	}
	pinned["table2.txt"] = strings.Repeat("0", 64)
	p.pinned = pinned
	var ids atomic.Int64
	ph := measure(p, 0, 2, nil, &ids)
	if ph.ops != 2 || ph.failed != 2 {
		t.Fatalf("%d ops, %d failed; want 2 and 2", ph.ops, ph.failed)
	}
	if ph.firstErr == nil || !strings.Contains(ph.firstErr.Error(), "table2.txt") {
		t.Fatalf("first failure %v does not name the artifact", ph.firstErr)
	}
}

// BENCHMARK.json lists exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, err := endToEnd(phase{ops: minOps, wall: 1, lat: *hist(minOps)}, setupTimes{1, 1}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): printed as %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(layerCatalogue) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalogue %d", len(spec.PerLayer), len(layerCatalogue))
	}
	for i, m := range spec.PerLayer {
		if c := layerCatalogue[i]; c.name != m.Name || c.unit != m.Unit || c.better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalogue %+v", i, m, c)
		}
	}
}
