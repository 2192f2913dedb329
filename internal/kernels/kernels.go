// Package kernels describes the computation kernels whose memory traffic
// the benchmark measures. The paper's calibration kernel is a non-temporal
// memset (§IV-A1): every store bypasses the last-level cache and reaches
// memory, so the kernel's memory demand equals its instruction stream.
//
// The package also provides the kernels the paper lists as future work
// (§VI): array copy (a read stream plus a write stream) and STREAM-triad,
// plus a cacheable variant used by the LLC extension. Each kernel knows
// how to turn "c cores computing on data bound to node m" into the memory
// streams the simulator arbitrates.
package kernels

import (
	"fmt"
	"slices"

	"memcontention/internal/memsys"
	"memcontention/internal/topology"
)

// Kind enumerates the built-in kernels.
type Kind int

// Built-in kernel kinds.
const (
	// NTMemset initialises an array with non-temporal stores: one write
	// stream per core, no reads. The paper's calibration kernel.
	NTMemset Kind = iota
	// Copy copies one array into another: a read stream and a write
	// stream per core (§VI future work).
	Copy
	// Triad is the STREAM triad a[i] = b[i] + s·c[i]: two read streams
	// and one write stream per core.
	Triad
	// Load is a read-only reduction: one read stream per core.
	Load
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case NTMemset:
		return "nt-memset"
	case Copy:
		return "copy"
	case Triad:
		return "triad"
	case Load:
		return "load"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kernel is a computation kernel description.
type Kernel struct {
	Kind Kind
	// Name is a human label, defaulting to the kind name.
	Name string
	// ReadStreams/WriteStreams count the per-core memory streams.
	ReadStreams  int
	WriteStreams int
	// NonTemporal marks kernels whose stores bypass the LLC. The
	// calibration kernel sets it; the cache extension clears it.
	NonTemporal bool
	// DemandFactor scales the per-core bandwidth demand relative to the
	// NT-memset baseline measured by the hardware profile. A kernel
	// with more concurrent streams per core extracts somewhat more
	// bandwidth per core, but not proportionally (the core's load/store
	// units saturate): factors are calibrated, not derived.
	DemandFactor float64
	// ArithmeticIntensity is flop per byte moved; the paper's §I notes
	// that contention matters for memory-bound kernels (low intensity).
	ArithmeticIntensity float64
}

// Validate checks kernel invariants.
func (k Kernel) Validate() error {
	if k.ReadStreams < 0 || k.WriteStreams < 0 || k.ReadStreams+k.WriteStreams == 0 {
		return fmt.Errorf("kernels: %s: needs at least one stream (r=%d w=%d)", k, k.ReadStreams, k.WriteStreams)
	}
	if k.DemandFactor <= 0 {
		return fmt.Errorf("kernels: %s: demand factor must be positive", k)
	}
	if k.ArithmeticIntensity < 0 {
		return fmt.Errorf("kernels: %s: negative arithmetic intensity", k)
	}
	return nil
}

// String implements fmt.Stringer.
func (k Kernel) String() string {
	if k.Name != "" {
		return k.Name
	}
	return k.Kind.String()
}

// MemoryBound reports whether the kernel is memory-bound (the regime where
// the paper's contention effects appear): intensity under ~1 flop/byte.
func (k Kernel) MemoryBound() bool { return k.ArithmeticIntensity < 1.0 }

// The built-in kernels. Demand factors are relative to NT-memset = 1.0.
func ntMemset() Kernel {
	return Kernel{Kind: NTMemset, WriteStreams: 1, NonTemporal: true, DemandFactor: 1.0, ArithmeticIntensity: 0}
}

// New returns the built-in kernel of the given kind.
func New(kind Kind) Kernel {
	switch kind {
	case NTMemset:
		return ntMemset()
	case Copy:
		return Kernel{Kind: Copy, ReadStreams: 1, WriteStreams: 1, NonTemporal: true, DemandFactor: 1.25, ArithmeticIntensity: 0}
	case Triad:
		return Kernel{Kind: Triad, ReadStreams: 2, WriteStreams: 1, NonTemporal: true, DemandFactor: 1.4, ArithmeticIntensity: 0.08}
	case Load:
		return Kernel{Kind: Load, ReadStreams: 1, NonTemporal: false, DemandFactor: 0.95, ArithmeticIntensity: 0.12}
	default:
		k := ntMemset()
		k.Name = fmt.Sprintf("unknown(%d)", int(kind))
		return k
	}
}

// Assignment is a placed computation: which cores run the kernel and where
// its data lives — the (n, mcomp) pair of the model.
type Assignment struct {
	Kernel Kernel
	Cores  []topology.CoreID
	Node   topology.NodeID
}

// Validate checks the assignment against a platform.
func (a Assignment) Validate(plat *topology.Platform) error {
	if err := a.Kernel.Validate(); err != nil {
		return err
	}
	if len(a.Cores) == 0 {
		return fmt.Errorf("kernels: assignment with no cores")
	}
	if int(a.Node) < 0 || int(a.Node) >= plat.NNodes() {
		return fmt.Errorf("kernels: assignment node %d out of range [0,%d)", a.Node, plat.NNodes())
	}
	// seen is a bit per core, on the stack for up to 512 cores.
	var small [8]uint64
	seen := small[:]
	if n := (plat.NCores() + 63) / 64; n > len(small) {
		seen = make([]uint64, n)
	}
	for _, c := range a.Cores {
		if int(c) < 0 || int(c) >= plat.NCores() {
			return fmt.Errorf("kernels: assignment core %d out of range [0,%d)", c, plat.NCores())
		}
		word, bit := c/64, uint64(1)<<(c%64)
		if seen[word]&bit != 0 {
			return fmt.Errorf("kernels: core %d assigned twice", c)
		}
		seen[word] |= bit
	}
	return nil
}

// Streams expands the assignment into simulator streams, one per core,
// with IDs starting at firstID. The per-core demand is the hardware
// profile's per-core rate scaled by the kernel's demand factor; read and
// write streams of one core are merged into a single demand (they contend
// in the same load/store units, and the controller sees their sum).
func (a Assignment) Streams(sys *memsys.System, firstID int) ([]memsys.Stream, error) {
	return a.AppendStreams(nil, sys, firstID)
}

// AppendStreams is Streams appending to dst, which it returns unchanged
// with the error when the assignment is invalid. A caller that passes the
// same storage again expands an assignment without allocating.
func (a Assignment) AppendStreams(dst []memsys.Stream, sys *memsys.System, firstID int) ([]memsys.Stream, error) {
	if err := a.Validate(sys.Platform()); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, len(a.Cores))
	for i, c := range a.Cores {
		dst = append(dst, memsys.Stream{
			ID:     firstID + i,
			Kind:   memsys.KindCompute,
			Core:   c,
			Node:   a.Node,
			Demand: sys.ComputeDemand(c, a.Node) * a.Kernel.DemandFactor,
		})
	}
	return dst, nil
}

// BytesPerIteration reports how many bytes one iteration over an array of
// elems float64 elements moves through memory (reads + writes).
func (k Kernel) BytesPerIteration(elems int) int64 {
	const elemSize = 8
	return int64(elems) * elemSize * int64(k.ReadStreams+k.WriteStreams)
}
