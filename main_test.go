package memcontention

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"memcontention/internal/memsys"
	"memcontention/internal/topology"
)

// TestMain fails the run when a test modified a built-in platform or the
// profile of a built-in memory system. PlatformByName and Testbed share
// one platform per name with the whole process, and memsys.Builtin one
// memory system, which NewCluster and bench.NewRunner run on, so such a
// change would shift the numbers of every test that runs after it. Every
// field of a platform and a profile is exported, so the encoding covers
// all of them.
func TestMain(m *testing.M) {
	before := encodeTestbed()
	code := m.Run()
	for i, after := range encodeTestbed() {
		if !bytes.Equal(before[i], after) {
			fmt.Fprintf(os.Stderr, "FAIL: a test modified a shared built-in platform or profile\n\tbefore: %s\n\tafter:  %s\n", before[i], after)
			code = 1
		}
	}
	os.Exit(code)
}

// encodeTestbed returns the JSON encoding of each built-in platform and
// of its built-in memory system's profile.
func encodeTestbed() [][]byte {
	var out [][]byte
	for _, p := range topology.Testbed() {
		sys, _ := memsys.Builtin(p)
		for _, v := range []any{p, sys.Profile()} {
			b, err := json.Marshal(v)
			if err != nil {
				panic(err) // platforms and profiles hold only strings, finite numbers and slices of them
			}
			out = append(out, b)
		}
	}
	return out
}
