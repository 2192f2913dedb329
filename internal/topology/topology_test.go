package topology

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestBuilderBasic(t *testing.T) {
	p, err := NewBuilder("test").
		CPU(Intel, "Test CPU").
		Sockets(2).NodesPerSocket(2).CoresPerSocket(8).
		MemoryPerNodeGB(16).
		NICOn("nic0", InfiniBand, 2, 3).
		LinkName("UPI").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.NSockets() != 2 || p.NNodes() != 4 || p.NCores() != 16 {
		t.Fatalf("unexpected shape: %d sockets, %d nodes, %d cores", p.NSockets(), p.NNodes(), p.NCores())
	}
	if p.NodesPerSocket() != 2 || p.CoresPerSocket() != 8 {
		t.Fatalf("per-socket counts wrong: %d nodes, %d cores", p.NodesPerSocket(), p.CoresPerSocket())
	}
	if p.TotalMemoryGB() != 64 {
		t.Errorf("TotalMemoryGB = %d, want 64", p.TotalMemoryGB())
	}
	// NIC socket derived from its node.
	if p.NIC.Socket != 1 {
		t.Errorf("NIC on node 2 must sit on socket 1, got %d", p.NIC.Socket)
	}
}

func TestSocketMajorNumbering(t *testing.T) {
	p := HenriSubnuma()
	// Nodes 0,1 on socket 0; nodes 2,3 on socket 1.
	for node, wantSocket := range map[NodeID]SocketID{0: 0, 1: 0, 2: 1, 3: 1} {
		got, err := p.SocketOfNode(node)
		if err != nil {
			t.Fatal(err)
		}
		if got != wantSocket {
			t.Errorf("node %d on socket %d, want %d", node, got, wantSocket)
		}
	}
	// Cores 0..17 on socket 0, spread over nodes 0 and 1.
	n0, err := p.NodeOfCore(0)
	if err != nil || n0 != 0 {
		t.Errorf("core 0 local node = %d (%v), want 0", n0, err)
	}
	n17, err := p.NodeOfCore(17)
	if err != nil || n17 != 1 {
		t.Errorf("core 17 local node = %d (%v), want 1", n17, err)
	}
}

func TestLocalRemoteNodes(t *testing.T) {
	p := Henri()
	if !p.IsLocalNode(0) || p.IsLocalNode(1) {
		t.Error("node 0 must be local, node 1 remote (henri)")
	}
	if got := p.LocalNodes(); len(got) != 1 || got[0] != 0 {
		t.Errorf("LocalNodes = %v", got)
	}
	if got := p.RemoteNodes(); len(got) != 1 || got[0] != 1 {
		t.Errorf("RemoteNodes = %v", got)
	}
}

func TestCrossesLink(t *testing.T) {
	p := Henri()
	if p.CrossesLink(0, 0) {
		t.Error("socket 0 to node 0 must not cross the link")
	}
	if !p.CrossesLink(0, 1) {
		t.Error("socket 0 to node 1 must cross the link")
	}
	if p.CrossesLink(1, 1) {
		t.Error("socket 1 to node 1 must not cross the link")
	}
}

func TestSameSocket(t *testing.T) {
	p := HenriSubnuma()
	if !p.SameSocket(0, 1) || !p.SameSocket(2, 3) {
		t.Error("intra-socket node pairs must share a socket")
	}
	if p.SameSocket(1, 2) {
		t.Error("nodes 1 and 2 are on different sockets")
	}
}

func TestCoresOfSocket(t *testing.T) {
	p := Dahu()
	c0 := p.CoresOfSocket(0)
	c1 := p.CoresOfSocket(1)
	if len(c0) != 16 || len(c1) != 16 {
		t.Fatalf("dahu must have 16 cores per socket, got %d/%d", len(c0), len(c1))
	}
	if c0[0] != 0 || c1[0] != 16 {
		t.Errorf("socket core ranges wrong: %v %v", c0[0], c1[0])
	}
	if p.CoresOfSocket(9) != nil {
		t.Error("unknown socket must return nil")
	}
}

// TestTestbedMatchesTable1 pins the structural facts of Table I.
func TestTestbedMatchesTable1(t *testing.T) {
	cases := []struct {
		plat     *Platform
		cores    int // per socket
		nodes    int // total
		memGB    int
		tech     NetworkTech
		vendor   Vendor
		linkName string
	}{
		{Henri(), 18, 2, 96, InfiniBand, Intel, "UPI"},
		{HenriSubnuma(), 18, 4, 96, InfiniBand, Intel, "UPI"},
		{Dahu(), 16, 2, 192, OmniPath, Intel, "UPI"},
		{Diablo(), 32, 2, 256, InfiniBand, AMD, "Infinity Fabric"},
		{Pyxis(), 32, 2, 256, InfiniBand, Cavium, "CCPI2"},
		{Occigen(), 14, 2, 64, InfiniBand, Intel, "QPI"},
	}
	for _, c := range cases {
		p := c.plat
		if p.CoresPerSocket() != c.cores {
			t.Errorf("%s: %d cores/socket, want %d", p.Name, p.CoresPerSocket(), c.cores)
		}
		if p.NNodes() != c.nodes {
			t.Errorf("%s: %d nodes, want %d", p.Name, p.NNodes(), c.nodes)
		}
		if p.TotalMemoryGB() != c.memGB {
			t.Errorf("%s: %d GB, want %d", p.Name, p.TotalMemoryGB(), c.memGB)
		}
		if p.NIC.Tech != c.tech {
			t.Errorf("%s: %s network, want %s", p.Name, p.NIC.Tech, c.tech)
		}
		if p.Vendor != c.vendor {
			t.Errorf("%s: vendor %s, want %s", p.Name, p.Vendor, c.vendor)
		}
		if p.Link.Name != c.linkName {
			t.Errorf("%s: link %s, want %s", p.Name, p.Link.Name, c.linkName)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: validate: %v", p.Name, err)
		}
		if p.NSockets() != 2 {
			t.Errorf("%s: %d sockets, want 2", p.Name, p.NSockets())
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("pyxis")
	if err != nil || p.Name != "pyxis" {
		t.Fatalf("ByName(pyxis) = %v, %v", p, err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown platform must error")
	}
	names := Names()
	if len(names) != 6 {
		t.Errorf("Names() has %d entries, want 6", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("Names() must be sorted")
		}
	}
	// ByName looks a platform up in its own name table: it must agree
	// with Testbed on every platform, and Names with Testbed's names.
	var built []string
	for _, want := range Testbed() {
		got, err := ByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%q) differs from Testbed's platform", want.Name)
		}
		built = append(built, want.Name)
	}
	sort.Strings(built)
	if !reflect.DeepEqual(names, built) {
		t.Errorf("Names() = %v, Testbed names %v", names, built)
	}
}

// TestSharedPlatforms: ByName and Testbed hand out one platform per name,
// built once, equal to what its named constructor builds; a lookup
// allocates nothing, and Testbed only its slice.
func TestSharedPlatforms(t *testing.T) {
	build := map[string]func() *Platform{
		"henri": Henri, "henri-subnuma": HenriSubnuma, "dahu": Dahu,
		"diablo": Diablo, "pyxis": Pyxis, "occigen": Occigen,
	}
	tb := Testbed()
	if len(tb) != len(build) {
		t.Fatalf("Testbed has %d platforms, want %d", len(tb), len(build))
	}
	for i, p := range tb {
		first, err := ByName(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := ByName(p.Name); again != first {
			t.Errorf("ByName(%q) returned two platforms", p.Name)
		}
		if Testbed()[i] != first {
			t.Errorf("Testbed()[%d] is not ByName(%q)", i, p.Name)
		}
		if !reflect.DeepEqual(first, build[p.Name]()) {
			t.Errorf("shared %s differs from a new build", p.Name)
		}
		if first == build[p.Name]() {
			t.Errorf("%s's named constructor returned the shared platform", p.Name)
		}
	}
	if got := testing.AllocsPerRun(100, func() { _, _ = ByName("henri") }); got != 0 {
		t.Errorf("ByName allocates %v times per call, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { _ = Testbed() }); got != 1 {
		t.Errorf("Testbed allocates %v times per call, want 1 (its slice)", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	corrupt := []struct {
		name string
		mut  func(*Platform)
	}{
		{"empty name", func(p *Platform) { p.Name = "" }},
		{"core socket out of range", func(p *Platform) { p.Cores[0].Socket = 9 }},
		{"core node mismatch", func(p *Platform) { p.Cores[0].Node = 1 }},
		{"node id not dense", func(p *Platform) { p.Nodes[0].ID = 5 }},
		{"node memory non-positive", func(p *Platform) { p.Nodes[0].MemoryGB = 0 }},
		{"NIC node out of range", func(p *Platform) { p.NIC.Node = 99 }},
		{"NIC socket/node mismatch", func(p *Platform) { p.NIC.Socket = 0 }},
		{"asymmetric sockets", func(p *Platform) { p.Sockets[1].Nodes = nil }},
		{"socket lists foreign core", func(p *Platform) { p.Sockets[0].Cores[0] = 20 }},
	}
	for _, c := range corrupt {
		p := Henri() // fresh copy each time
		c.mut(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: corruption not detected", c.name)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := Diablo()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Platform
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped platform invalid: %v", err)
	}
	if back.Name != p.Name || back.NCores() != p.NCores() || back.NIC != p.NIC {
		t.Error("JSON round trip lost data")
	}
}

func TestDescribeAndString(t *testing.T) {
	p := Occigen()
	s := p.String()
	for _, want := range []string{"occigen", "InfiniBand", "QPI"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
	d := p.Describe()
	for _, want := range []string{"Socket 0", "Socket 1", "NUMA"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe() missing %q", want)
		}
	}
}

// TestBuildRejectsBadNIC: a NIC on a node the platform lacks, and a
// socket without NUMA nodes, are build errors, never panics.
func TestBuildRejectsBadNIC(t *testing.T) {
	for _, tc := range []struct {
		name           string
		nodesPerSocket int
		nicNode        NodeID
	}{
		{"nic on node 7", 1, 7},
		{"nic on node -1", 1, -1},
		{"zero nodes per socket", 0, 0},
		{"negative nodes per socket", -1, 0},
	} {
		_, err := NewBuilder("bad").
			CPU(Intel, "x").
			Sockets(2).NodesPerSocket(tc.nodesPerSocket).CoresPerSocket(4).
			MemoryPerNodeGB(8).
			NICOn("nic", InfiniBand, tc.nicNode, 3).
			LinkName("UPI").
			Build()
		if err == nil {
			t.Errorf("%s: builder accepted it", tc.name)
		}
	}
}

func TestOutOfRangeQueries(t *testing.T) {
	p := Henri()
	if _, err := p.SocketOfNode(9); err == nil {
		t.Error("SocketOfNode out of range must error")
	}
	if _, err := p.NodeOfCore(99); err == nil {
		t.Error("NodeOfCore out of range must error")
	}
}
