package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memcontention/internal/obs"
)

// TestRunRejectsNonPositiveIters: -iters 0 is refused before the sweep,
// so neither the table nor the -manifest records a round-trip count the
// sweep did not run.
func TestRunRejectsNonPositiveIters(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "run.json")
	var out bytes.Buffer
	err := run(context.Background(), &out, "henri", 0, 0, false, &obs.CLI{ManifestPath: manifest})
	if err == nil {
		t.Fatal("-iters 0 must be rejected")
	}
	if out.Len() != 0 {
		t.Errorf("rejected run wrote %q", out.String())
	}
	if _, err := os.Stat(manifest); !os.IsNotExist(err) {
		t.Errorf("rejected run wrote a manifest (stat: %v)", err)
	}
}

// TestRunRejectsOutOfRangeNode: a -node the platform does not have is a
// usage error, refused before any simulation, named once and without the
// command's prefix, which main adds.
func TestRunRejectsOutOfRangeNode(t *testing.T) {
	for _, node := range []int{9, -1} {
		var out bytes.Buffer
		err := run(context.Background(), &out, "henri", node, 4, false, &obs.CLI{})
		if err == nil || !strings.HasPrefix(err.Error(), "-node ") {
			t.Errorf("-node %d: err = %v, want a usage error", node, err)
		}
		if out.Len() != 0 {
			t.Errorf("-node %d: rejected run wrote %q", node, out.String())
		}
	}
}
