package memcontention

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"memcontention/internal/topology"
)

// TestMain fails the run when a test modified a built-in platform.
// PlatformByName and Testbed share one platform per name with the whole
// process, so such a change would shift the numbers of every test that
// runs after it. Every field of a platform is JSON-tagged, so the
// encoding covers all of it.
func TestMain(m *testing.M) {
	before := encodeTestbed()
	code := m.Run()
	for i, after := range encodeTestbed() {
		if !bytes.Equal(before[i], after) {
			fmt.Fprintf(os.Stderr, "FAIL: a test modified a shared built-in platform\n\tbefore: %s\n\tafter:  %s\n", before[i], after)
			code = 1
		}
	}
	os.Exit(code)
}

// encodeTestbed returns the JSON encoding of each built-in platform.
func encodeTestbed() [][]byte {
	var out [][]byte
	for _, p := range topology.Testbed() {
		b, err := json.Marshal(p)
		if err != nil {
			panic(err) // a platform holds only strings, numbers and slices of them
		}
		out = append(out, b)
	}
	return out
}
