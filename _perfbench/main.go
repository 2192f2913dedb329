// Command perfbench is the repository's benchmark: it drives one workload
// closed-loop for a fixed time and prints its end-to-end metrics, or, in
// a separate traced run, its per-layer metrics. WORKLOADS.md describes
// the workloads and which layer metric should move which end-to-end one.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash _perfbench/run.sh --workload paper-testbed --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"memcontention/internal/stats"
)

// setUps is how often a run sets its workload up; setup_s is the median.
const setUps = 5

// minOps is the fewest ops an untraced run holds, so that at least
// minBeyond of them lie beyond op_p90_ms: a run continues past --seconds
// until it has them.
const minOps = 10 * minBeyond

// workload is one way of loading the system. Ops must be safe to run
// from workers() goroutines at once.
type workload interface {
	// setUp builds the workload's inputs from seed and warms it up.
	// It may be called again after tearDown.
	setUp(seed uint64, tr *tracer) error
	// workers is the number of closed-loop clients.
	workers() int
	// passLen is the number of ops in one pass over the generated
	// inputs; a single-client run stops only at the end of a pass, so
	// every run weighs each input the same.
	passLen() int
	// op runs operation id on client w and checks its output; an
	// error counts the op as failed.
	op(w int, id int64, tr *tracer) error
	// endPhase checks what a timed phase as a whole must satisfy.
	endPhase() error
	// attach switches on the instruments the traced run reads.
	attach()
	// layers computes the per-layer metrics after the traced phase.
	layers(m *layerSet, ph phases, spans []span) error
	tearDown()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "paper-testbed":
		return &paperTestbed{}, nil
	case "cluster-halo":
		return &clusterHalo{}, nil
	case "serve-mixed":
		return &serveMixed{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-testbed, cluster-halo or serve-mixed)", name)
}

// phase is what one timed closed loop measured.
type phase struct {
	ops, failed int64
	firstErr    error
	wall        float64 // seconds
	lat         latencyHist
	allocs      float64 // heap allocations
	allocBytes  float64
	gcCPU, cpu  float64 // GC and busy CPU seconds
	procCPU     float64 // process user+system CPU seconds
}

type phases struct{ untraced, traced phase }

// runtimeSample reads the heap and CPU counters of the Go runtime.
type runtimeSample struct{ objects, tiny, bytes, gc, total, idle float64 }

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2), v(3), v(4), v(5)}
}

// heapAllocs counts heap allocations so far, tiny ones included, as
// `go test -benchmem` does.
func heapAllocs() float64 {
	s := readRuntime()
	return s.objects + s.tiny
}

// measure runs wl closed-loop for d, and on until it has at least atLeast
// ops, and returns what it saw.
func measure(wl workload, d time.Duration, atLeast int, tr *tracer, ids *atomic.Int64) phase {
	n := wl.workers()
	perWorker := (atLeast + n - 1) / n
	lat := make([]latencyHist, n)
	failed := make([]int64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	before := readRuntime()
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := &lat[w]
			for i := 1; ; i++ {
				id := ids.Add(1) - 1
				t0 := time.Now()
				err := wl.op(w, id, tr)
				t1 := time.Now()
				l.add(t1.Sub(t0).Seconds())
				if err != nil {
					failed[w]++
					if errs[w] == nil {
						errs[w] = fmt.Errorf("op %d: %w", id, err)
					}
				}
				if t1.After(deadline) && i%wl.passLen() == 0 && i >= perWorker {
					break
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	after := readRuntime()
	cpu1 := processCPU()
	var p phase
	p.wall = wall
	for w := 0; w < n; w++ {
		p.lat.merge(&lat[w])
		p.failed += failed[w]
		if p.firstErr == nil {
			p.firstErr = errs[w]
		}
	}
	p.ops = p.lat.n
	p.allocs = (after.objects + after.tiny) - (before.objects + before.tiny)
	p.allocBytes = after.bytes - before.bytes
	p.gcCPU = after.gc - before.gc
	p.cpu = (after.total - after.idle) - (before.total - before.idle)
	p.procCPU = cpu1 - cpu0
	return p
}

// setupTimes are the medians of a run's set-ups.
type setupTimes struct{ cpu, wall float64 }

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd computes the untraced metrics a user of the system sees. The
// ones BENCHMARK.json gates are costs per op and set-up CPU time: on a
// shared VM the wall-clock figures move with other tenants' load (see
// WORKLOADS.md), so they are printed for the reader only.
func endToEnd(p phase, setup setupTimes, out io.Writer) (map[string]metric, error) {
	if p.ops == 0 {
		return nil, errors.New("no op completed")
	}
	p50, _ := p.lat.percentile(0.50)
	p90, err := p.lat.tailPercentile(0.90)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	ops := float64(p.ops)
	fmt.Fprintf(out, "ops %d in %.3f s, failed_op_ratio %s\n", p.ops, p.wall, failedRatio(p.ops, p.failed))
	fmt.Fprintf(out, "  %-22s %14.6g 1/s\n", "ops_per_s", ops/p.wall)
	fmt.Fprintf(out, "  %-22s %14.6g ms\n", "op_p50_ms", p50*1e3)
	fmt.Fprintf(out, "  %-22s %14.6g ms\n", "op_p90_ms", p90*1e3)
	if p99, err := p.lat.tailPercentile(0.99); err == nil {
		fmt.Fprintf(out, "  %-22s %14.6g ms\n", "op_p99_ms", p99*1e3)
	} else {
		fmt.Fprintf(out, "  op_p99_ms not reported: %v\n", err)
	}
	fmt.Fprintf(out, "  %-22s %14.6g s\n", "setup_wall_s", setup.wall)
	return map[string]metric{
		"cpu_ms_per_op":   {p.procCPU / ops * 1e3, "ms"},
		"allocs_per_op":   {p.allocs / ops, "count"},
		"alloc_kb_per_op": {p.allocBytes / ops / 1024, "KiB"},
		"peak_rss_mb":     {rss, "MiB"},
		"setup_s":         {setup.cpu, "s"},
	}, nil
}

// processCPU is the user and system CPU time the process has used.
func processCPU() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSS reads the process's peak resident set (VmHWM) in MiB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	spansDir string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "paper-testbed, cluster-halo or serve-mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&o.spansDir, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(o options, out io.Writer) (*result, error) {
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		return nil, fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	wl, err := newWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	var cpu, wall []float64
	for i := 0; i < setUps; i++ {
		if i > 0 {
			wl.tearDown()
		}
		t0, c0 := time.Now(), processCPU()
		if err := wl.setUp(o.seed, tr); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		cpu = append(cpu, processCPU()-c0)
		wall = append(wall, time.Since(t0).Seconds())
	}
	defer wl.tearDown()
	setup := setupTimes{cpu: stats.Median(cpu), wall: stats.Median(wall)}
	fmt.Fprintf(out, "%s seed %d: set-up %.4f s CPU, %.4f s wall (medians of %d)\n", o.workload, o.seed, setup.cpu, setup.wall, setUps)

	var ids atomic.Int64
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 0 {
		p := measure(wl, d, minOps, nil, &ids)
		phaseErr := wl.endPhase()
		m, err := endToEnd(p, setup, out)
		if err != nil {
			return nil, err
		}
		reportFailures(out, phaseErr, p.firstErr)
		printMetrics(out, m)
		return &result{Correct: p.failed == 0 && phaseErr == nil, Attempted: p.ops, Failed: p.failed, Metrics: m}, nil
	}

	var ph phases
	ph.untraced = measure(wl, d/2, 1, nil, &ids)
	phaseErr := wl.endPhase()
	wl.attach()
	ph.traced = measure(wl, d/2, 1, tr, &ids)
	phaseErr = errors.Join(phaseErr, wl.endPhase())
	spans := tr.snapshot()
	ls := newLayerSet()
	if err := wl.layers(ls, ph, spans); err != nil {
		return nil, err
	}
	u50, _ := ph.untraced.lat.percentile(0.5)
	t50, _ := ph.traced.lat.percentile(0.5)
	ls.setRatio("trace.overhead_ratio", ratio{num: t50 * 1e3, base: u50 * 1e3})
	ls.setRatio("go.gc_cpu_share", ratio{num: ph.untraced.gcCPU, base: ph.untraced.cpu})
	fmt.Fprintf(out, "traced run: %d untraced ops, %d traced ops\n", ph.untraced.ops, ph.traced.ops)
	fmt.Fprint(out, layerShares(spans))
	ls.print(out)
	path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %s (%d)\n", path, len(spans))
	ops, failed := ph.untraced.ops+ph.traced.ops, ph.untraced.failed+ph.traced.failed
	reportFailures(out, phaseErr, ph.untraced.firstErr, ph.traced.firstErr)
	return &result{Correct: failed == 0 && phaseErr == nil, Attempted: ops, Failed: failed, Metrics: ls.metrics()}, nil
}

func reportFailures(out io.Writer, phaseErr error, opErrs ...error) {
	if phaseErr != nil {
		fmt.Fprintln(out, "timed phase failed its checks:", phaseErr)
	}
	for _, e := range opErrs {
		if e != nil {
			fmt.Fprintln(out, "first failed op:", e)
		}
	}
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-22s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
