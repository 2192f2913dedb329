package topology

import (
	"fmt"
	"sort"
	"sync"
)

// This file encodes Table I of the paper: the six testbed platforms.
// Memory sizes, core counts, NUMA splits, vendors and fabrics follow the
// table; NIC attachment follows the observations of §IV-B (e.g. diablo's
// NIC sits next to the second socket's NUMA node, explaining the 12.1 vs
// 22.4 GB/s locality split).

// Henri is the 2-NUMA-node configuration of the henri platform:
// 2 × Intel Xeon Gold 6140 (18 cores), 96 GB, InfiniBand.
func Henri() *Platform {
	return NewBuilder("henri").
		CPU(Intel, "Xeon Gold 6140 @ 2.30GHz, 18 cores").
		Sockets(2).NodesPerSocket(1).CoresPerSocket(18).
		MemoryPerNodeGB(48).
		NICOn("ConnectX-4 EDR", InfiniBand, 1, 3).
		LinkName("UPI").
		MustBuild()
}

// HenriSubnuma is the same machine with sub-NUMA clustering enabled:
// 4 NUMA nodes (2 per socket).
func HenriSubnuma() *Platform {
	return NewBuilder("henri-subnuma").
		CPU(Intel, "Xeon Gold 6140 @ 2.30GHz, 18 cores").
		Sockets(2).NodesPerSocket(2).CoresPerSocket(18).
		MemoryPerNodeGB(24).
		NICOn("ConnectX-4 EDR", InfiniBand, 2, 3).
		LinkName("UPI").
		MustBuild()
}

// Dahu: 2 × Intel Xeon Gold 6130 (16 cores), 192 GB, Omni-Path.
func Dahu() *Platform {
	return NewBuilder("dahu").
		CPU(Intel, "Xeon Gold 6130 @ 2.10GHz, 16 cores").
		Sockets(2).NodesPerSocket(1).CoresPerSocket(16).
		MemoryPerNodeGB(96).
		NICOn("Omni-Path HFI", OmniPath, 1, 3).
		LinkName("UPI").
		MustBuild()
}

// Diablo: 2 × AMD EPYC 7452 (32 cores), 256 GB, InfiniBand. The NIC is
// plugged next to the second socket; §IV-B(c) reports 22.4 GB/s with
// communication data on that node vs 12.1 GB/s on the other one.
func Diablo() *Platform {
	return NewBuilder("diablo").
		CPU(AMD, "EPYC 7452 @ 2.35GHz, 32 cores").
		Sockets(2).NodesPerSocket(1).CoresPerSocket(32).
		MemoryPerNodeGB(128).
		NICOn("ConnectX-6 HDR", InfiniBand, 1, 4).
		LinkName("Infinity Fabric").
		MustBuild()
}

// Pyxis: 2 × Cavium ThunderX2 99xx (32 cores), 256 GB, InfiniBand.
func Pyxis() *Platform {
	return NewBuilder("pyxis").
		CPU(Cavium, "ThunderX2 99xx @ 2.20GHz, 32 cores").
		Sockets(2).NodesPerSocket(1).CoresPerSocket(32).
		MemoryPerNodeGB(128).
		NICOn("ConnectX-5 EDR", InfiniBand, 1, 3).
		LinkName("CCPI2").
		MustBuild()
}

// Occigen: 2 × Intel Xeon E5-2690v4 (14 cores), 64 GB, InfiniBand. The
// paper's only production platform (2014–2022) and the one the model
// predicts best.
func Occigen() *Platform {
	return NewBuilder("occigen").
		CPU(Intel, "Xeon E5-2690v4 @ 2.60GHz, 14 cores").
		Sockets(2).NodesPerSocket(1).CoresPerSocket(14).
		MemoryPerNodeGB(32).
		NICOn("ConnectX-3 FDR", InfiniBand, 1, 3).
		LinkName("QPI").
		MustBuild()
}

// testbed lists the constructor of every platform of Table I under its
// name, in the table's order.
var testbed = []struct {
	name  string
	build func() *Platform
}{
	{"henri", Henri},
	{"henri-subnuma", HenriSubnuma},
	{"dahu", Dahu},
	{"diablo", Diablo},
	{"pyxis", Pyxis},
	{"occigen", Occigen},
}

// shared holds the platforms of Table I in the table's order, built once,
// on first use, by their named constructors. ByName and Testbed hand out
// these instances to every caller in the process.
var shared = sync.OnceValue(func() []*Platform {
	ps := make([]*Platform, len(testbed))
	for i, b := range testbed {
		ps[i] = b.build()
	}
	return ps
})

// Testbed returns every platform of Table I, in the table's order, in a
// new slice. The platforms are shared by every caller in the process and
// must not be modified; a caller that needs a platform it can change
// builds one with its named constructor (Henri, Dahu, …).
func Testbed() []*Platform {
	return append([]*Platform(nil), shared()...)
}

// Names returns the sorted names of the built-in platforms.
func Names() []string {
	names := make([]string, len(testbed))
	for i, b := range testbed {
		names[i] = b.name
	}
	sort.Strings(names)
	return names
}

// ByName returns the built-in platform with the given name. The platform
// is shared by every caller in the process and must not be modified; a
// caller that needs a platform it can change builds one with its named
// constructor (Henri, Dahu, …).
func ByName(name string) (*Platform, error) {
	for i, b := range testbed {
		if b.name == name {
			return shared()[i], nil
		}
	}
	return nil, fmt.Errorf("topology: unknown platform %q (known: %v)", name, Names())
}
