package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"memcontention/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current program")

// goldenDir holds the 16 files `paperfigs -out <dir> -seed 1` writes.
// Refresh with `go test ./cmd/paperfigs -run Golden -update` only after
// an intended change to the outputs, and say why in the change.
const goldenDir = "testdata/golden"

// TestGoldenArtifacts pins the paper's artifacts byte for byte: the
// sequential run on one core and the parallel sweep must both write
// exactly the checked-in files, so results depend on neither worker
// count nor GOMAXPROCS.
func TestGoldenArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full testbed evaluation")
	}
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"workers1-gomaxprocs1", 1}, // -update writes this run
		{"workers4", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := options{out: filepath.Join(t.TempDir(), "out"), seed: 1, workers: tc.workers, replications: 1}
			if tc.workers == 1 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			}
			if *update && tc.workers == 1 {
				if err := os.RemoveAll(goldenDir); err != nil {
					t.Fatal(err)
				}
				o.out = goldenDir
			}
			if err := run(context.Background(), &bytes.Buffer{}, o, &obs.CLI{}); err != nil {
				t.Fatal(err)
			}
			if n := len(readDir(t, goldenDir)); n != 16 {
				t.Fatalf("%s holds %d files, want the 16 paper artifacts (run with -update to create)", goldenDir, n)
			}
			assertSameDir(t, goldenDir, o.out)
		})
	}
}

// assertSameDir checks that got holds exactly want's files, byte for
// byte.
func assertSameDir(t *testing.T, want, got string) {
	t.Helper()
	wantFiles, gotFiles := readDir(t, want), readDir(t, got)
	if len(wantFiles) == 0 || len(wantFiles) != len(gotFiles) {
		t.Fatalf("%s holds %d files, %s holds %d", want, len(wantFiles), got, len(gotFiles))
	}
	for name, data := range wantFiles {
		if !bytes.Equal(data, gotFiles[name]) {
			t.Errorf("artifact %s differs between %s and %s", name, want, got)
		}
	}
}

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}
