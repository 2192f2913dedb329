package bench

import (
	"fmt"
	"sync"
	"testing"

	"memcontention/internal/model"
	"memcontention/internal/rng"
	"memcontention/internal/topology"
)

// fullSocket returns a runner on the named platform, its remote
// calibration placement and its socket-0 core count.
func fullSocket(tb testing.TB, name string) (*Runner, model.Placement, int) {
	tb.Helper()
	plat, err := topology.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := NewRunner(Config{Platform: plat, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	_, remote := SamplePlacements(plat)
	return r, remote, plat.CoresPerSocket()
}

// TestMeasurePointAllocs: a point at full socket allocates nothing, not
// its stream layout, a solve or a noise draw.
func TestMeasurePointAllocs(t *testing.T) {
	for _, name := range []string{"henri", "dahu", "pyxis"} {
		r, pl, n := fullSocket(t, name)
		got := testing.AllocsPerRun(50, func() {
			if _, err := r.MeasurePoint(pl, n); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s: MeasurePoint(%v, %d) allocates %v times per call, want 0", name, pl, n, got)
		}
	}
}

// TestNilRegistryBuildsNoInstruments: a runner without a registry builds
// nothing for its instruments. It used to build the bucket slices of two
// histograms it never used: two allocations per runner.
func TestNilRegistryBuildsNoInstruments(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { _ = newBenchInstruments(nil) }); got != 0 {
		t.Errorf("newBenchInstruments(nil) allocates %v times, want 0", got)
	}
}

// TestNoiseMatchesLabels: the noise of every metric is the mean of
// Repeats jitter draws from rng.New(seed, label).Derive("repK"), label
// being fmt.Sprintf("%s|%s|%s|n=%d|%s", platform, kernel, placement, n,
// metric): the piecewise key reproduces the string-built streams.
func TestNoiseMatchesLabels(t *testing.T) {
	r := henriRunner(t, 7)
	const rel = 0.02
	for _, pl := range AllPlacements(r.cfg.Platform) {
		for _, n := range []int{1, 9, 10, r.cfg.Platform.CoresPerSocket()} {
			for _, metric := range []string{"comp_alone", "comm_alone", "comp_par", "comm_par", "mixed_comp_par"} {
				s := rng.New(r.cfg.Seed, fmt.Sprintf("%s|%s|%s|n=%d|%s", r.cfg.Platform.Name, r.cfg.Kernel, pl, n, metric))
				want := 0.0
				for rep := 0; rep < r.cfg.Repeats; rep++ {
					want += s.Derive(fmt.Sprintf("rep%d", rep)).Jitter(rel)
				}
				want /= float64(r.cfg.Repeats)
				if got := r.noise(r.noiseKey(pl, n).Str(metric), rel); got != want {
					t.Fatalf("%v n=%d %s: noise %v, want %v", pl, n, metric, got, want)
				}
			}
		}
	}
}

// BenchmarkMeasurePoint times one benchmark point at full socket on
// henri's remote calibration placement: three solves and four noise
// factors.
func BenchmarkMeasurePoint(b *testing.B) {
	r, pl, n := fullSocket(b, "henri")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.MeasurePoint(pl, n); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMeasurePointConcurrent: goroutines sharing one runner, as campaign
// workers and memserve do, measure exactly what a lone caller measures;
// run with -race, it also shows the runner and its memory system keep no
// per-call state.
func TestMeasurePointConcurrent(t *testing.T) {
	r, pl, n := fullSocket(t, "dahu")
	want := make([]Point, n)
	for i := range want {
		pt, err := r.MeasurePoint(pl, i+1)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pt
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range want {
				pt, err := r.MeasurePoint(pl, i+1)
				if err != nil {
					t.Error(err)
					return
				}
				if pt != want[i] {
					t.Errorf("n=%d: concurrent point %+v, alone %+v", i+1, pt, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
