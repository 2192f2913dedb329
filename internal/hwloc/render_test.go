package hwloc

import (
	"strings"
	"testing"

	"memcontention/internal/topology"
)

func TestRenderHenriSubnuma(t *testing.T) {
	out := Wrap(topology.HenriSubnuma()).Render()
	for _, want := range []string{
		"Socket 0", "Socket 1",
		"NUMANode 0", "NUMANode 3",
		"cores 0-8", "cores 27-35",
		"UPI",
		"NIC ConnectX-4 EDR",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// The NIC marker must appear exactly once, on node 2.
	if strings.Count(out, "← NIC") != 1 {
		t.Error("NIC must be drawn exactly once")
	}
	// Box drawing is balanced.
	if strings.Count(out, "┌") != strings.Count(out, "└") {
		t.Error("unbalanced boxes")
	}
}

func TestRenderAllPlatforms(t *testing.T) {
	for _, p := range topology.Testbed() {
		out := Wrap(p).Render()
		if !strings.Contains(out, p.Name) || !strings.Contains(out, p.Link.Name) {
			t.Errorf("%s: incomplete render", p.Name)
		}
		// Every box line must have equal rune width (alignment).
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "│") && !strings.HasSuffix(line, "│") {
				t.Errorf("%s: misaligned box line %q", p.Name, line)
			}
		}
	}
}
