// Command benchdiff compares two benchjson documents, the base side and
// the changed side of a benchmark comparison, and fails on regressions,
// so instrumentation overhead creep is caught in review instead of six
// PRs later. `make benchdiff` (scripts/benchdiff/run.sh) feeds it
// alternating runs of a base revision and the working tree.
//
// Usage:
//
//	go run ./scripts/benchdiff -baseline base.json -new fresh.json
//	go test -bench 'Halo' -benchmem -run '^$' ./... \
//	  | go run ./scripts/benchjson \
//	  | go run ./scripts/benchdiff -baseline base.json
//
// Benchmarks are matched by (package, name); entries present on only one
// side are reported but never fail the run (benchmarks come and go).
// A benchmark listed several times in a document ran several rounds, and
// that side's value is the median over them. A matched benchmark fails
// when its median ns/op or allocs/op grows by more than -tolerance
// (default 0.15 = 15%) over the base side's. Timings on shared CI runners
// are noisy — treat a benchdiff failure as "measure properly before
// merging", which is why the Makefile wires it as advisory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"memcontention/internal/stats"
)

// Result mirrors scripts/benchjson's output entry.
type Result struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

type document struct {
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "benchjson document of the base side")
	newPath := flag.String("new", "-", "fresh benchjson document ('-' reads stdin)")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional growth in ns/op and allocs/op")
	flag.Parse()

	regressions, err := run(os.Stdout, *baselinePath, *newPath, os.Stdin, *tolerance)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s) beyond %.0f%%\n", regressions, *tolerance*100)
		os.Exit(1)
	}
}

// run diffs the two documents' per-benchmark medians, prints the report
// to w and returns how many benchmarks regressed beyond tolerance.
func run(w io.Writer, baselinePath, newPath string, stdin io.Reader, tolerance float64) (int, error) {
	if tolerance < 0 {
		return 0, fmt.Errorf("negative tolerance %v", tolerance)
	}
	baseline, err := loadFile(baselinePath)
	if err != nil {
		return 0, err
	}
	var fresh []Result
	if newPath == "-" {
		fresh, err = load(stdin, "stdin")
	} else {
		fresh, err = loadFile(newPath)
	}
	if err != nil {
		return 0, err
	}

	base, changed := medians(baseline), medians(fresh)
	regressions := 0
	matched := 0
	for _, k := range sortedKeys(changed) {
		f := changed[k]
		b, ok := base[k]
		if !ok {
			fmt.Fprintf(w, "  new      %-50s (no baseline entry)\n", k)
			continue
		}
		matched++
		delete(base, k)
		nsGrowth := growth(b.ns, f.ns)
		allocGrowth := growth(b.allocs, f.allocs)
		status := "ok"
		if nsGrowth > tolerance || allocGrowth > tolerance {
			status = "REGRESSED"
			regressions++
		}
		fmt.Fprintf(w, "  %-8s %-50s ns/op %10.0f -> %10.0f (%+6.1f%%)  allocs/op %6.0f -> %6.0f (%+6.1f%%)  rounds %d/%d\n",
			status, k, b.ns, f.ns, nsGrowth*100, b.allocs, f.allocs, allocGrowth*100, b.rounds, f.rounds)
	}
	for _, k := range sortedKeys(base) {
		fmt.Fprintf(w, "  absent   %-50s (in baseline, not in fresh run)\n", k)
	}
	if matched == 0 {
		return 0, fmt.Errorf("no benchmarks in common between %s and %s", baselinePath, newPath)
	}
	return regressions, nil
}

// growth returns the fractional increase from old to new; shrinkage and
// a zero/absent old value (e.g. no -benchmem allocs column) report 0.
func growth(old, new float64) float64 {
	if old <= 0 || new <= old {
		return 0
	}
	return (new - old) / old
}

func key(r Result) string { return r.Package + "." + r.Name }

// side is one benchmark's value on one side: the medians over its rounds.
type side struct {
	ns, allocs float64
	rounds     int
}

// medians groups a document's entries by benchmark, each entry one round,
// and takes the median ns/op and allocs/op of every group.
func medians(rs []Result) map[string]side {
	ns := make(map[string][]float64)
	allocs := make(map[string][]float64)
	for _, r := range rs {
		ns[key(r)] = append(ns[key(r)], r.NsPerOp)
		allocs[key(r)] = append(allocs[key(r)], r.AllocsPerOp)
	}
	m := make(map[string]side, len(ns))
	for k := range ns {
		m[k] = side{ns: stats.Median(ns[k]), allocs: stats.Median(allocs[k]), rounds: len(ns[k])}
	}
	return m
}

func sortedKeys(m map[string]side) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func loadFile(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return load(f, path)
}

func load(r io.Reader, name string) ([]Result, error) {
	var doc document
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", name)
	}
	return doc.Benchmarks, nil
}
