// Package hwloc answers the question hwloc answers for the paper's
// benchmark (§IV-A1), "which cores?", and draws the machine the way
// lstopo does.
//
// Nothing here binds anything. Locality reaches the simulator through a
// kernels.Assignment (its cores and the node of its buffer) and the node
// of each message; a Topology only picks the cores of a socket or NUMA
// node and renders the platform.
package hwloc

import (
	"fmt"
	"sort"
	"strings"

	"memcontention/internal/topology"
)

// CPUSet is a set of cores, kept sorted and deduplicated.
type CPUSet []topology.CoreID

// NewCPUSet builds a set from the given cores.
func NewCPUSet(cores ...topology.CoreID) CPUSet {
	s := append(CPUSet(nil), cores...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	for i, c := range s {
		if i == 0 || c != s[i-1] {
			out = append(out, c)
		}
	}
	return out
}

// Contains reports whether the set holds core c.
func (s CPUSet) Contains(c topology.CoreID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= c })
	return i < len(s) && s[i] == c
}

// Take returns the first n cores of the set (fewer if the set is smaller).
func (s CPUSet) Take(n int) CPUSet {
	if n > len(s) {
		n = len(s)
	}
	if n < 0 {
		n = 0
	}
	return append(CPUSet(nil), s[:n]...)
}

// String renders the set in the familiar "0-3,7,9-10" taskset form.
func (s CPUSet) String() string {
	if len(s) == 0 {
		return "∅"
	}
	var parts []string
	start, prev := s[0], s[0]
	flush := func() {
		if start == prev {
			parts = append(parts, fmt.Sprintf("%d", start))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", start, prev))
		}
	}
	for _, c := range s[1:] {
		if c == prev+1 {
			prev = c
			continue
		}
		flush()
		start, prev = c, c
	}
	flush()
	return strings.Join(parts, ",")
}

// Topology wraps a platform for core-set queries and rendering.
type Topology struct {
	plat *topology.Platform
}

// Wrap wraps a validated platform: every built-in platform and every
// System's platform is one.
func Wrap(p *topology.Platform) *Topology { return &Topology{plat: p} }

// Platform returns the wrapped platform.
func (t *Topology) Platform() *topology.Platform { return t.plat }

// SocketSet returns the cores of one socket as a CPUSet.
func (t *Topology) SocketSet(s topology.SocketID) CPUSet {
	return NewCPUSet(t.plat.CoresOfSocket(s)...)
}

// NodeSet returns the cores whose local node is n.
func (t *Topology) NodeSet(n topology.NodeID) CPUSet {
	var cores []topology.CoreID
	for _, c := range t.plat.Cores {
		if c.Node == n {
			cores = append(cores, c.ID)
		}
	}
	return NewCPUSet(cores...)
}
