// Package topology describes the hardware structure of a machine the way
// hwloc exposes it to the paper's benchmark: sockets, NUMA nodes, cores,
// the network interface and the inter-socket interconnect.
//
// A Platform is purely structural — capacities and contention behaviour
// live in internal/memsys. This mirrors the paper's separation between the
// machine topology (Table I, an input of the model) and the measured
// bandwidths (outputs of the benchmark).
//
// Node numbering convention (used by the model's placement equations 6–7):
// NUMA nodes are numbered socket-major, so nodes 0..#m-1 belong to socket 0
// (“local” to the computing cores, which the paper always places on socket
// 0) and nodes #m..2#m-1 belong to socket 1 (“remote”).
package topology

import (
	"errors"
	"fmt"
	"strings"
)

// CoreID identifies a physical core, numbered 0..NCores-1 socket-major.
type CoreID int

// NodeID identifies a NUMA node, numbered 0..NNodes-1 socket-major.
type NodeID int

// SocketID identifies a processor package.
type SocketID int

// NetworkTech is the fabric family of the machine's NIC.
type NetworkTech string

// Network technologies present in the paper's testbed (Table I).
const (
	InfiniBand NetworkTech = "InfiniBand"
	OmniPath   NetworkTech = "Omni-Path"
)

// Vendor is the processor manufacturer, which determines the name of the
// inter-socket link (UPI on Intel, Infinity Fabric on AMD, CCPI on Cavium).
type Vendor string

// Vendors present in the paper's testbed.
const (
	Intel  Vendor = "INTEL"
	AMD    Vendor = "AMD"
	Cavium Vendor = "CAVIUM-ARM"
)

// Core is one physical processing unit. Hyperthreads are not modelled: the
// paper binds one software thread per physical core and never uses the
// second hyperthread.
type Core struct {
	ID     CoreID   `json:"id"`
	Socket SocketID `json:"socket"`
	// Node is the NUMA node whose memory is local to this core.
	Node NodeID `json:"node"`
}

// NUMANode is one memory bank with its controller.
type NUMANode struct {
	ID       NodeID   `json:"id"`
	Socket   SocketID `json:"socket"`
	MemoryGB int      `json:"memory_gb"`
}

// Socket is one processor package.
type Socket struct {
	ID    SocketID `json:"id"`
	Model string   `json:"model"`
	Cores []CoreID `json:"cores"`
	Nodes []NodeID `json:"nodes"`
}

// NIC is the network interface, attached through PCIe to one socket; the
// NUMA node it is closest to matters for communication locality (§IV-B(c)).
type NIC struct {
	Name    string      `json:"name"`
	Tech    NetworkTech `json:"tech"`
	Socket  SocketID    `json:"socket"`
	Node    NodeID      `json:"node"`
	PCIeGen int         `json:"pcie_gen"`
}

// Interconnect is the inter-socket link of Figure 1 (UPI / Infinity Fabric).
type Interconnect struct {
	Name string `json:"name"`
}

// Platform is a complete machine description, the structural part of one
// row of Table I.
type Platform struct {
	Name    string       `json:"name"`
	Vendor  Vendor       `json:"vendor"`
	CPUName string       `json:"cpu"`
	Sockets []Socket     `json:"sockets"`
	Nodes   []NUMANode   `json:"nodes"`
	Cores   []Core       `json:"cores"`
	NIC     NIC          `json:"nic"`
	Link    Interconnect `json:"link"`
}

// NSockets reports the number of sockets.
func (p *Platform) NSockets() int { return len(p.Sockets) }

// NNodes reports the total number of NUMA nodes.
func (p *Platform) NNodes() int { return len(p.Nodes) }

// NCores reports the total number of cores.
func (p *Platform) NCores() int { return len(p.Cores) }

// NodesPerSocket reports #m, the number of NUMA nodes per socket, used by
// the placement equations (6)–(7).
func (p *Platform) NodesPerSocket() int {
	if len(p.Sockets) == 0 {
		return 0
	}
	return len(p.Sockets[0].Nodes)
}

// CoresPerSocket reports the number of cores of socket 0, the range of the
// benchmark's computing-core sweep.
func (p *Platform) CoresPerSocket() int {
	if len(p.Sockets) == 0 {
		return 0
	}
	return len(p.Sockets[0].Cores)
}

// SocketOfNode reports the socket owning node n.
func (p *Platform) SocketOfNode(n NodeID) (SocketID, error) {
	if int(n) < 0 || int(n) >= len(p.Nodes) {
		return 0, fmt.Errorf("topology: node %d out of range [0,%d)", n, len(p.Nodes))
	}
	return p.Nodes[n].Socket, nil
}

// NodeOfCore reports the NUMA node local to core c.
func (p *Platform) NodeOfCore(c CoreID) (NodeID, error) {
	if int(c) < 0 || int(c) >= len(p.Cores) {
		return 0, fmt.Errorf("topology: core %d out of range [0,%d)", c, len(p.Cores))
	}
	return p.Cores[c].Node, nil
}

// IsLocalNode reports whether node n is local to the computing socket
// (socket 0), i.e. n < #m in the model's placement equations.
func (p *Platform) IsLocalNode(n NodeID) bool {
	return int(n) < p.NodesPerSocket()
}

// LocalNodes returns the NUMA nodes of socket 0 in id order.
func (p *Platform) LocalNodes() []NodeID {
	out := make([]NodeID, 0, p.NodesPerSocket())
	for _, nd := range p.Nodes {
		if nd.Socket == 0 {
			out = append(out, nd.ID)
		}
	}
	return out
}

// RemoteNodes returns the NUMA nodes not on socket 0 in id order.
func (p *Platform) RemoteNodes() []NodeID {
	out := make([]NodeID, 0, p.NNodes()-p.NodesPerSocket())
	for _, nd := range p.Nodes {
		if nd.Socket != 0 {
			out = append(out, nd.ID)
		}
	}
	return out
}

// CoresOfSocket returns the cores of socket s in id order.
func (p *Platform) CoresOfSocket(s SocketID) []CoreID {
	for _, sk := range p.Sockets {
		if sk.ID == s {
			return append([]CoreID(nil), sk.Cores...)
		}
	}
	return nil
}

// SameSocket reports whether two NUMA nodes share a socket.
func (p *Platform) SameSocket(a, b NodeID) bool {
	sa, errA := p.SocketOfNode(a)
	sb, errB := p.SocketOfNode(b)
	return errA == nil && errB == nil && sa == sb
}

// CrossesLink reports whether a memory access from socket s to node n has
// to traverse the inter-socket interconnect.
func (p *Platform) CrossesLink(s SocketID, n NodeID) bool {
	sn, err := p.SocketOfNode(n)
	return err == nil && sn != s
}

// TotalMemoryGB reports the machine's memory size (Table I "Memory" column).
func (p *Platform) TotalMemoryGB() int {
	total := 0
	for _, nd := range p.Nodes {
		total += nd.MemoryGB
	}
	return total
}

// Validate checks the structural invariants every Platform must satisfy.
func (p *Platform) Validate() error {
	var errs []error
	if p.Name == "" {
		errs = append(errs, errors.New("empty platform name"))
	}
	if len(p.Sockets) == 0 {
		errs = append(errs, errors.New("no sockets"))
	}
	if len(p.Nodes) == 0 {
		errs = append(errs, errors.New("no NUMA nodes"))
	}
	if len(p.Cores) == 0 {
		errs = append(errs, errors.New("no cores"))
	}
	// Socket-major, dense numbering.
	for i, c := range p.Cores {
		if int(c.ID) != i {
			errs = append(errs, fmt.Errorf("core %d has id %d (must be dense, socket-major)", i, c.ID))
		}
		if int(c.Socket) < 0 || int(c.Socket) >= len(p.Sockets) {
			errs = append(errs, fmt.Errorf("core %d references socket %d out of range", i, c.Socket))
			continue
		}
		if int(c.Node) < 0 || int(c.Node) >= len(p.Nodes) {
			errs = append(errs, fmt.Errorf("core %d references node %d out of range", i, c.Node))
			continue
		}
		if p.Nodes[c.Node].Socket != c.Socket {
			errs = append(errs, fmt.Errorf("core %d on socket %d has local node %d on socket %d", i, c.Socket, c.Node, p.Nodes[c.Node].Socket))
		}
	}
	for i, nd := range p.Nodes {
		if int(nd.ID) != i {
			errs = append(errs, fmt.Errorf("node %d has id %d (must be dense)", i, nd.ID))
		}
		if int(nd.Socket) < 0 || int(nd.Socket) >= len(p.Sockets) {
			errs = append(errs, fmt.Errorf("node %d references socket %d out of range", i, nd.Socket))
		}
		if nd.MemoryGB <= 0 {
			errs = append(errs, fmt.Errorf("node %d has non-positive memory", i))
		}
	}
	perSocketNodes := -1
	for i, sk := range p.Sockets {
		if int(sk.ID) != i {
			errs = append(errs, fmt.Errorf("socket %d has id %d (must be dense)", i, sk.ID))
		}
		if perSocketNodes == -1 {
			perSocketNodes = len(sk.Nodes)
		} else if len(sk.Nodes) != perSocketNodes {
			errs = append(errs, fmt.Errorf("socket %d has %d nodes, socket 0 has %d (model requires symmetric sockets)", i, len(sk.Nodes), perSocketNodes))
		}
		for _, c := range sk.Cores {
			if int(c) < 0 || int(c) >= len(p.Cores) {
				errs = append(errs, fmt.Errorf("socket %d lists core %d out of range", i, c))
			} else if p.Cores[c].Socket != sk.ID {
				errs = append(errs, fmt.Errorf("socket %d lists core %d which belongs to socket %d", i, c, p.Cores[c].Socket))
			}
		}
		for _, n := range sk.Nodes {
			if int(n) < 0 || int(n) >= len(p.Nodes) {
				errs = append(errs, fmt.Errorf("socket %d lists node %d out of range", i, n))
			} else if p.Nodes[n].Socket != sk.ID {
				errs = append(errs, fmt.Errorf("socket %d lists node %d which belongs to socket %d", i, n, p.Nodes[n].Socket))
			}
		}
	}
	// Socket-major node numbering: all nodes of socket k come before socket k+1.
	for i := 1; i < len(p.Nodes); i++ {
		if p.Nodes[i].Socket < p.Nodes[i-1].Socket {
			errs = append(errs, fmt.Errorf("node numbering not socket-major at node %d", i))
			break
		}
	}
	if int(p.NIC.Socket) < 0 || int(p.NIC.Socket) >= len(p.Sockets) {
		errs = append(errs, fmt.Errorf("NIC attached to socket %d out of range", p.NIC.Socket))
	}
	if int(p.NIC.Node) < 0 || int(p.NIC.Node) >= len(p.Nodes) {
		errs = append(errs, fmt.Errorf("NIC attached to node %d out of range", p.NIC.Node))
	} else if int(p.NIC.Socket) >= 0 && int(p.NIC.Socket) < len(p.Sockets) && p.Nodes[p.NIC.Node].Socket != p.NIC.Socket {
		errs = append(errs, fmt.Errorf("NIC node %d not on NIC socket %d", p.NIC.Node, p.NIC.Socket))
	}
	return errors.Join(errs...)
}

// String renders a short lstopo-style summary.
func (p *Platform) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d × %s, %d cores, %d NUMA nodes, %d GB, %s via %s(node %d), link %s",
		p.Name, p.NSockets(), p.CPUName, p.NCores(), p.NNodes(), p.TotalMemoryGB(),
		p.NIC.Tech, p.NIC.Name, p.NIC.Node, p.Link.Name)
	return b.String()
}

// Describe renders a multi-line human-readable description, used by
// cmd/platforms.
func (p *Platform) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Platform %s (%s)\n", p.Name, p.Vendor)
	fmt.Fprintf(&b, "  CPU:    %d × %s (%d cores/socket)\n", p.NSockets(), p.CPUName, p.CoresPerSocket())
	fmt.Fprintf(&b, "  Memory: %d GB over %d NUMA nodes (%d per socket)\n", p.TotalMemoryGB(), p.NNodes(), p.NodesPerSocket())
	fmt.Fprintf(&b, "  NIC:    %s (%s), socket %d, NUMA node %d, PCIe gen%d\n", p.NIC.Name, p.NIC.Tech, p.NIC.Socket, p.NIC.Node, p.NIC.PCIeGen)
	fmt.Fprintf(&b, "  Link:   %s\n", p.Link.Name)
	for _, sk := range p.Sockets {
		fmt.Fprintf(&b, "  Socket %d: cores %d-%d, nodes %v\n", sk.ID, sk.Cores[0], sk.Cores[len(sk.Cores)-1], sk.Nodes)
	}
	return b.String()
}

// Builder assembles symmetric dual-style platforms with dense numbering.
// It covers every shape in the paper's testbed (N sockets × M nodes × C
// cores, all symmetric).
type Builder struct {
	name           string
	vendor         Vendor
	cpu            string
	sockets        int
	nodesPerSocket int
	coresPerSocket int
	memoryPerNode  int
	nic            NIC
	link           Interconnect
}

// NewBuilder starts a platform description.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, sockets: 2, nodesPerSocket: 1}
}

// CPU sets vendor and model string.
func (b *Builder) CPU(v Vendor, model string) *Builder {
	b.vendor, b.cpu = v, model
	return b
}

// Sockets sets the socket count (the testbed is always 2).
func (b *Builder) Sockets(n int) *Builder { b.sockets = n; return b }

// NodesPerSocket sets #m.
func (b *Builder) NodesPerSocket(n int) *Builder { b.nodesPerSocket = n; return b }

// CoresPerSocket sets the per-socket core count.
func (b *Builder) CoresPerSocket(n int) *Builder { b.coresPerSocket = n; return b }

// MemoryPerNodeGB sets each NUMA node's memory size.
func (b *Builder) MemoryPerNodeGB(gb int) *Builder { b.memoryPerNode = gb; return b }

// NICOn attaches the NIC.
func (b *Builder) NICOn(name string, tech NetworkTech, node NodeID, pcieGen int) *Builder {
	b.nic = NIC{Name: name, Tech: tech, Node: node, PCIeGen: pcieGen}
	return b
}

// LinkName names the inter-socket interconnect.
func (b *Builder) LinkName(name string) *Builder {
	b.link = Interconnect{Name: name}
	return b
}

// Build assembles and validates the platform.
func (b *Builder) Build() (*Platform, error) {
	if b.nodesPerSocket < 1 {
		return nil, fmt.Errorf("topology: build %s: %d NUMA nodes per socket, want at least 1", b.name, b.nodesPerSocket)
	}
	p := &Platform{
		Name:    b.name,
		Vendor:  b.vendor,
		CPUName: b.cpu,
		NIC:     b.nic,
		Link:    b.link,
	}
	coreID := CoreID(0)
	nodeID := NodeID(0)
	for s := 0; s < b.sockets; s++ {
		sk := Socket{ID: SocketID(s), Model: b.cpu}
		for m := 0; m < b.nodesPerSocket; m++ {
			p.Nodes = append(p.Nodes, NUMANode{ID: nodeID, Socket: sk.ID, MemoryGB: b.memoryPerNode})
			sk.Nodes = append(sk.Nodes, nodeID)
			nodeID++
		}
		for c := 0; c < b.coresPerSocket; c++ {
			// Cores are spread evenly over the socket's NUMA nodes,
			// first-node-first, matching sub-NUMA clustering.
			local := sk.Nodes[c*b.nodesPerSocket/b.coresPerSocket]
			p.Cores = append(p.Cores, Core{ID: coreID, Socket: sk.ID, Node: local})
			sk.Cores = append(sk.Cores, coreID)
			coreID++
		}
		p.Sockets = append(p.Sockets, sk)
	}
	// NIC socket is derived from its node.
	if int(p.NIC.Node) >= 0 && int(p.NIC.Node) < len(p.Nodes) {
		p.NIC.Socket = p.Nodes[p.NIC.Node].Socket
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("topology: build %s: %w", b.name, err)
	}
	return p, nil
}

// MustBuild is Build for the package's own platform constructors.
func (b *Builder) MustBuild() *Platform {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
