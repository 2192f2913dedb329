// Package hwloc mirrors the role hwloc plays in the paper's benchmark
// (§IV-A1): binding threads to cores, binding memory buffers to specific
// NUMA nodes, and answering locality queries against the topology.
//
// Nothing here touches real OS affinity — bindings are bookkeeping that
// the simulator consumes — but the API shapes match what an HPC runtime
// needs, so the examples read like real hwloc-using code.
package hwloc

import (
	"fmt"
	"sort"
	"strings"

	"memcontention/internal/topology"
	"memcontention/internal/units"
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

// Union returns the union of two sets.
func (s CPUSet) Union(o CPUSet) CPUSet {
	return NewCPUSet(append(append([]topology.CoreID(nil), s...), o...)...)
}

// Intersect returns the intersection of two sets.
func (s CPUSet) Intersect(o CPUSet) CPUSet {
	var out []topology.CoreID
	for _, c := range s {
		if o.Contains(c) {
			out = append(out, c)
		}
	}
	return NewCPUSet(out...)
}

// Minus returns s without the elements of o.
func (s CPUSet) Minus(o CPUSet) CPUSet {
	var out []topology.CoreID
	for _, c := range s {
		if !o.Contains(c) {
			out = append(out, c)
		}
	}
	return NewCPUSet(out...)
}

// First returns the lowest core and true, or 0 and false when empty.
func (s CPUSet) First() (topology.CoreID, bool) {
	if len(s) == 0 {
		return 0, false
	}
	return s[0], true
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

// Buffer is a memory region explicitly bound to one NUMA node, the way the
// paper's benchmark binds its computation and communication buffers.
type Buffer struct {
	Name string
	Node topology.NodeID
	Size units.ByteSize
}

// String implements fmt.Stringer.
func (b *Buffer) String() string {
	return fmt.Sprintf("%s[%s on node %d]", b.Name, b.Size, b.Node)
}

// Topology wraps a platform with binding state.
type Topology struct {
	plat   *topology.Platform
	bound  map[int]topology.CoreID // thread index -> core; made on first bind
	allocs []*Buffer
}

// FromPlatform validates p and wraps it.
func FromPlatform(p *topology.Platform) (*Topology, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("hwloc: %w", err)
	}
	return Wrap(p), nil
}

// Wrap wraps a platform its caller has already validated, as memsys.New
// does for the platform of every System.
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

// AllocOnNode creates a buffer bound to the given NUMA node.
func (t *Topology) AllocOnNode(name string, size units.ByteSize, node topology.NodeID) (*Buffer, error) {
	if int(node) < 0 || int(node) >= t.plat.NNodes() {
		return nil, fmt.Errorf("hwloc: alloc %q: node %d out of range [0,%d)", name, node, t.plat.NNodes())
	}
	if size <= 0 {
		return nil, fmt.Errorf("hwloc: alloc %q: non-positive size %d", name, size)
	}
	free := units.ByteSize(t.plat.Nodes[node].MemoryGB) * units.GiB
	used := units.ByteSize(0)
	for _, b := range t.allocs {
		if b.Node == node {
			used += b.Size
		}
	}
	if used+size > free {
		return nil, fmt.Errorf("hwloc: alloc %q: node %d out of memory (%s used of %s, want %s)", name, node, used, free, size)
	}
	b := &Buffer{Name: name, Node: node, Size: size}
	t.allocs = append(t.allocs, b)
	return b, nil
}

// Free releases a buffer. Freeing an unknown buffer is an error.
func (t *Topology) Free(b *Buffer) error {
	for i, have := range t.allocs {
		if have == b {
			t.allocs = append(t.allocs[:i], t.allocs[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("hwloc: free of unknown buffer %v", b)
}

// BindThread records that software thread idx runs on the given core.
// Binding two threads to one core is allowed (it happens with
// oversubscription) but binding one thread twice replaces the previous
// binding.
func (t *Topology) BindThread(idx int, core topology.CoreID) error {
	if int(core) < 0 || int(core) >= t.plat.NCores() {
		return fmt.Errorf("hwloc: bind thread %d: core %d out of range [0,%d)", idx, core, t.plat.NCores())
	}
	if t.bound == nil {
		t.bound = make(map[int]topology.CoreID)
	}
	t.bound[idx] = core
	return nil
}

// ThreadCore reports the core thread idx is bound to.
func (t *Topology) ThreadCore(idx int) (topology.CoreID, bool) {
	c, ok := t.bound[idx]
	return c, ok
}

// Distance reports an ACPI-SLIT-style relative memory distance between a
// core and a node: 10 for local, 21 across the interconnect.
func (t *Topology) Distance(core topology.CoreID, node topology.NodeID) (int, error) {
	if int(core) < 0 || int(core) >= t.plat.NCores() {
		return 0, fmt.Errorf("hwloc: core %d out of range", core)
	}
	if int(node) < 0 || int(node) >= t.plat.NNodes() {
		return 0, fmt.Errorf("hwloc: node %d out of range", node)
	}
	if t.plat.CrossesLink(t.plat.Cores[core].Socket, node) {
		return 21, nil
	}
	return 10, nil
}

// ClosestNode reports the NUMA node nearest to a core (its local node).
func (t *Topology) ClosestNode(core topology.CoreID) (topology.NodeID, error) {
	return t.plat.NodeOfCore(core)
}

// NICNode reports the NUMA node the network interface is attached to.
func (t *Topology) NICNode() topology.NodeID { return t.plat.NIC.Node }
