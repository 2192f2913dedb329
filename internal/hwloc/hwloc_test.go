package hwloc

import (
	"testing"

	"memcontention/internal/topology"
)

func TestCPUSetBasics(t *testing.T) {
	s := NewCPUSet(3, 1, 2, 1, 3)
	if len(s) != 3 || s[0] != 1 || s[1] != 2 || s[2] != 3 {
		t.Fatalf("NewCPUSet must sort and dedup: %v", s)
	}
	if !s.Contains(2) || s.Contains(9) {
		t.Error("Contains broken")
	}
	if got := s.String(); got != "1-3" {
		t.Errorf("String() = %q, want \"1-3\"", got)
	}
	if got := NewCPUSet(0, 1, 2, 7, 9, 10).String(); got != "0-2,7,9-10" {
		t.Errorf("String() = %q, want \"0-2,7,9-10\"", got)
	}
	if got := NewCPUSet().String(); got != "∅" {
		t.Errorf("empty set renders %q", got)
	}
}

func TestCPUSetOps(t *testing.T) {
	a := NewCPUSet(1, 2, 3)
	if got := a.Take(2); len(got) != 2 || got[1] != 2 {
		t.Errorf("Take = %v", got)
	}
	if got := a.Take(99); len(got) != 3 {
		t.Errorf("Take over size = %v", got)
	}
	if got := a.Take(-1); len(got) != 0 {
		t.Errorf("Take negative = %v", got)
	}
}

func TestSocketAndNodeSets(t *testing.T) {
	topo := Wrap(topology.Henri())
	s0 := topo.SocketSet(0)
	if len(s0) != 18 || s0[0] != 0 || s0[17] != 17 {
		t.Errorf("SocketSet(0) = %v", s0)
	}
	n0 := topo.NodeSet(0)
	if n0.String() != s0.String() {
		t.Error("on henri, node 0's cores are socket 0's cores")
	}
	if got := Wrap(topology.HenriSubnuma()).NodeSet(0); len(got) != 9 {
		t.Errorf("subnuma node 0 has %d cores, want 9", len(got))
	}
}
