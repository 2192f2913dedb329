package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"memcontention/internal/obs"
)

// layerMetric is one per-layer figure of the traced run. Every workload
// prints all of them; a layer a workload does not load reads 0.
type layerMetric struct {
	name, unit, better string
}

// layerCatalogue lists the per-layer metrics in BENCHMARK.json order.
var layerCatalogue = []layerMetric{
	{"memsys.solve_calls_per_op", "count", "lower"},
	{"memsys.streams_per_solve", "count", "lower"},
	{"memsys.solve_us", "us", "lower"},
	{"memsys.solve_allocs", "count", "lower"},
	{"bench.points_per_op", "count", "lower"},
	{"bench.sweeps_per_op", "count", "lower"},
	{"bench.sweep_useful_ratio", "ratio", "higher"},
	{"bench.measure_point_us", "us", "lower"},
	{"bench.noise_us", "us", "lower"},
	{"calib.fits_per_op", "count", "lower"},
	{"calib.calibrate_ms", "ms", "lower"},
	{"eval.evaluate_ms", "ms", "lower"},
	{"report.write_ms", "ms", "lower"},
	{"export.render_ms", "ms", "lower"},
	{"model.predict_curve_us", "us", "lower"},
	{"campaign.worker_efficiency", "ratio", "higher"},
	{"engine.events_per_op", "count", "lower"},
	{"engine.resolves_per_op", "count", "lower"},
	{"engine.procs_per_op", "count", "lower"},
	{"engine.non_solve_us_per_event", "us", "lower"},
	{"mpi.messages_per_op", "count", "lower"},
	{"mpi.bytes_per_op", "MiB", "lower"},
	{"sim.job_seconds", "s", "lower"},
	{"serve.handler_us_p50", "us", "lower"},
	{"serve.handler_share", "ratio", "lower"},
	{"serve.client_rtt_us", "us", "lower"},
	{"serve.decode_us", "us", "lower"},
	{"model.predict_ns", "ns", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.shed_ratio", "ratio", "lower"},
	{"go.gc_cpu_share", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// layerSet collects the traced run's per-layer values, with the base of
// every ratio and free-form notes for the text report.
type layerSet struct {
	values map[string]float64
	bases  map[string]ratio
	notes  []string
}

func newLayerSet() *layerSet {
	return &layerSet{values: map[string]float64{}, bases: map[string]ratio{}}
}

func (s *layerSet) set(name string, v float64) {
	for _, m := range layerCatalogue {
		if m.name == name {
			s.values[name] = v
			return
		}
	}
	panic("perfbench: per-layer metric " + name + " is not in the catalogue")
}

func (s *layerSet) get(name string) float64 { return s.values[name] }

// setRatio records a ratio metric together with its base.
func (s *layerSet) setRatio(name string, r ratio) {
	s.set(name, r.value())
	s.bases[name] = r
}

func (s *layerSet) note(line string) { s.notes = append(s.notes, line) }

func (s *layerSet) metrics() map[string]metric {
	out := make(map[string]metric, len(layerCatalogue))
	for _, m := range layerCatalogue {
		out[m.name] = metric{Value: s.values[m.name], Unit: m.unit}
	}
	return out
}

func (s *layerSet) print(w io.Writer) {
	for _, n := range s.notes {
		fmt.Fprintln(w, n)
	}
	for _, m := range layerCatalogue {
		v, ok := s.values[m.name]
		switch {
		case !ok:
			fmt.Fprintf(w, "  %-32s %14s %s (layer not loaded)\n", m.name, "0", m.unit)
		case s.bases[m.name] != ratio{}:
			fmt.Fprintf(w, "  %-32s %s\n", m.name, s.bases[m.name])
		default:
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.name, v, m.unit)
		}
	}
}

// counterSum adds up every series of a counter family in reg.
func counterSum(reg *obs.Registry, name string) float64 {
	total := 0.0
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// histogramSum returns the summed observations and count of a histogram
// family in reg.
func histogramSum(reg *obs.Registry, name string) (sum float64, count uint64) {
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			sum += s.Sum
			count += s.Count
		}
	}
	return sum, count
}

// pinnedSeeds is how many seeds have pinned outputs. A workload seed
// selects one of them: seed 1..pinnedSeeds itself, larger seeds wrap.
const pinnedSeeds = 16

func seedClass(seed uint64) uint64 { return 1 + (seed+pinnedSeeds-1)%pinnedSeeds }

// pinFile holds the outputs pinned for every seed class; `go test -run
// TestPins -update` regenerates it.
type pinFile struct {
	// PaperTestbed maps seed → artifact → SHA-256.
	PaperTestbed map[string]map[string]string `json:"paper_testbed"`
	// ClusterHalo maps seed → one entry per generated job shape.
	ClusterHalo map[string][]jobPin `json:"cluster_halo"`
}

type jobPin struct {
	Shape      string `json:"shape"`
	SimSeconds string `json:"sim_seconds"` // shortest round-trip decimal
	Messages   int    `json:"messages"`
	Bytes      int64  `json:"bytes"`
}

//go:embed pins.json
var pinsJSON []byte

var loadPins = sync.OnceValues(func() (*pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return &p, nil
})
