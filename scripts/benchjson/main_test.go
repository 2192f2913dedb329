package main

import (
	"bufio"
	"reflect"
	"strings"
	"testing"
)

// TestParseStripsProcsSuffix: names are recorded without the GOMAXPROCS
// suffix `go test` appends, so they match the committed baseline's.
func TestParseStripsProcsSuffix(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: memcontention
cpu: Intel(R) Xeon(R) CPU
BenchmarkPredict-2            	 1000000	      1043 ns/op	     128 B/op	       2 allocs/op
BenchmarkClusterHaloExchange-16	   40000	     31000 ns/op	   20000 B/op	     385 allocs/op
BenchmarkSolver               	   50000	     24000 ns/op
BenchmarkSolve/n=64-2        	   10000	    120000 ns/op
PASS
pkg: memcontention/internal/serve
BenchmarkHandler-2            	  200000	      5000 ns/op	    1024 B/op	      12 allocs/op
`
	got, err := parse(bufio.NewScanner(strings.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{Package: "memcontention", Name: "BenchmarkPredict", Iterations: 1000000, NsPerOp: 1043, BytesPerOp: 128, AllocsPerOp: 2},
		{Package: "memcontention", Name: "BenchmarkClusterHaloExchange", Iterations: 40000, NsPerOp: 31000, BytesPerOp: 20000, AllocsPerOp: 385},
		{Package: "memcontention", Name: "BenchmarkSolver", Iterations: 50000, NsPerOp: 24000},
		{Package: "memcontention", Name: "BenchmarkSolve/n=64", Iterations: 10000, NsPerOp: 120000},
		{Package: "memcontention/internal/serve", Name: "BenchmarkHandler", Iterations: 200000, NsPerOp: 5000, BytesPerOp: 1024, AllocsPerOp: 12},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed\n%+v\nwant\n%+v", got, want)
	}
}

func TestParseRejectsBadValue(t *testing.T) {
	if _, err := parse(bufio.NewScanner(strings.NewReader("BenchmarkX-2 10 abc ns/op\n"))); err == nil {
		t.Fatal("non-numeric value accepted")
	}
}
