// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON document on stdout, suitable for committing as a benchmark
// baseline (see BENCH_baseline.json) and diffing across changes.
// Benchmark names are recorded without the "-N" GOMAXPROCS suffix `go
// test` appends, so runs on machines with different core counts compare.
//
// Usage:
//
//	go test -bench . -benchmem -run '^$' ./... | go run ./scripts/benchjson
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

func main() {
	results, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"benchmarks": results}); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func parse(sc *bufio.Scanner) ([]Result, error) {
	var results []Result
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = rest
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // "Benchmark..." headers without a result column
		}
		r := Result{Package: pkg, Name: trimProcs(fields[0]), Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", fields[0], fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			}
		}
		results = append(results, r)
	}
	return results, sc.Err()
}

// trimProcs strips the trailing "-N" GOMAXPROCS suffix from a benchmark
// name ("BenchmarkPredict-2" -> "BenchmarkPredict"). `go test` omits the
// suffix when GOMAXPROCS is 1, so a sub-benchmark name that itself ends
// in "-<digits>" would lose that part there; name sub-benchmarks
// "n=64", not "n-64".
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 || strings.TrimRight(name[i+1:], "0123456789") != "" {
		return name
	}
	return name[:i]
}
