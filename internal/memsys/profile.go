package memsys

import (
	"errors"
	"fmt"
	"math"

	"memcontention/internal/topology"
)

// NodeCaps groups the capacity envelopes of one memory controller. The
// envelope that applies depends on who accesses the node:
//
//   - Core* envelopes bound the aggregate bandwidth core streams can
//     extract (the compute-alone green curve of Figure 2);
//   - Mix* envelopes bound the total (cores + NIC DMA) the controller can
//     serve, the T(n) capacity of the model;
//   - *Local applies when the accessing cores sit on the node's socket,
//     *Remote when they reach it across the inter-socket link.
type NodeCaps struct {
	CoreLocal  Envelope
	CoreRemote Envelope
	MixLocal   Envelope
	MixRemote  Envelope
}

// Validate checks all four envelopes.
func (c NodeCaps) Validate() error {
	return errors.Join(
		c.CoreLocal.Validate(), c.CoreRemote.Validate(),
		c.MixLocal.Validate(), c.MixRemote.Validate(),
	)
}

// Quirks are per-platform deviations from the idealised arbitration policy.
// They reproduce behaviours the paper observed that its own model cannot
// capture, so that our calibrated model exhibits realistic errors.
type Quirks struct {
	// EarlyCommStart makes the comm decay (CommDecayPerCore) begin at
	// this core count instead of at the capacity-saturation onset, for
	// local-class computations. Observed on henri local-local
	// (§IV-B(a): real decrease at 10 cores, capacity threshold at ~13).
	// 0 disables the quirk (decay starts at the natural onset).
	EarlyCommStart int

	// EarlyCommRate is the gentle pre-onset decay (GB/s per core) used
	// with EarlyCommStart.
	EarlyCommRate float64

	// SoftSaturationGB rounds the compute allocation min(demand, cap)
	// with a smooth minimum of this width, so compute bandwidth stops
	// scaling *near* the threshold (pyxis, §IV-B(e)). 0 disables.
	SoftSaturationGB float64

	// CrossSocketCommFactor scales the NIC's achievable bandwidth when
	// computations run on a *different* socket than the communication
	// data. The paper's model only knows data locality, so a platform
	// where the network cares about the computation side (pyxis) makes
	// non-sample placements mispredict. 0 means 1.0 (no effect).
	CrossSocketCommFactor float64

	// Measurement noise levels (relative std-dev), applied by the
	// benchmark layer, not the solver: generic, and comm-specific
	// (pyxis' network is unstable even alone, §IV-C1).
	MeasureNoiseRel float64
	CommNoiseRel    float64
	ComputeNoiseRel float64
}

// Profile is the full hardware behaviour description of a platform: what
// the paper calls "values characterizing hardware features" that vendors
// do not document and that the benchmark has to discover.
type Profile struct {
	PlatformName string

	// PerCoreLocal/PerCoreRemote is the bandwidth demand of one core's
	// non-temporal store stream (GB/s) against a local / remote node —
	// the hardware truth behind the model's Bcomp_seq.
	PerCoreLocal  float64
	PerCoreRemote float64

	// CommNominal[node] is the NIC's nominal receive bandwidth when the
	// message data lands on that NUMA node (GB/s) — the hardware truth
	// behind Bcomm_seq, locality-dependent (diablo: 12.1 vs 22.4).
	CommNominal []float64

	// CommFloorFrac is the guaranteed fraction of the nominal NIC
	// bandwidth preserved under contention — the hardware truth behind α.
	CommFloorFrac float64

	// CommDecayPerCore is how much NIC bandwidth (GB/s) each additional
	// computing core shaves once the memory system is past its
	// saturation onset: the hardware degrades communications gradually
	// (Figure 2's shrinking blue band), not as a step. 0 disables decay
	// (the NIC then only loses what the capacity envelope forces).
	CommDecayPerCore float64

	// Caps applies to every node (the testbed machines are symmetric).
	Caps NodeCaps

	// LinkCap is the inter-socket interconnect capacity (GB/s).
	LinkCap float64

	// PCIeCap bounds the NIC's DMA path (GB/s).
	PCIeCap float64

	Quirks Quirks
}

// Validate checks the profile against a platform.
func (p *Profile) Validate(plat *topology.Platform) error {
	var errs []error
	for _, f := range [...]float64{p.PerCoreLocal, p.PerCoreRemote, p.CommFloorFrac,
		p.LinkCap, p.PCIeCap, p.Quirks.EarlyCommRate, p.Quirks.SoftSaturationGB,
		p.Quirks.CrossSocketCommFactor} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			errs = append(errs, fmt.Errorf("profile has a non-finite parameter"))
			break
		}
	}
	if p.PerCoreLocal <= 0 || p.PerCoreRemote <= 0 {
		errs = append(errs, fmt.Errorf("per-core demands must be positive (local=%.2f remote=%.2f)", p.PerCoreLocal, p.PerCoreRemote))
	}
	if len(p.CommNominal) != plat.NNodes() {
		errs = append(errs, fmt.Errorf("CommNominal has %d entries, platform %s has %d nodes", len(p.CommNominal), plat.Name, plat.NNodes()))
	}
	for i, b := range p.CommNominal {
		if b <= 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			errs = append(errs, fmt.Errorf("CommNominal[%d] must be positive, got %.2f", i, b))
		}
	}
	if p.CommFloorFrac <= 0 || p.CommFloorFrac > 1 {
		errs = append(errs, fmt.Errorf("CommFloorFrac must be in (0,1], got %.3f", p.CommFloorFrac))
	}
	if p.LinkCap <= 0 || p.PCIeCap <= 0 {
		errs = append(errs, fmt.Errorf("link and PCIe capacities must be positive"))
	}
	if err := p.Caps.Validate(); err != nil {
		errs = append(errs, err)
	}
	if f := p.Quirks.CrossSocketCommFactor; f < 0 || f > 1.5 {
		errs = append(errs, fmt.Errorf("CrossSocketCommFactor out of range: %.2f", f))
	}
	return errors.Join(errs...)
}

// NominalComm reports the NIC's nominal bandwidth for data on the given
// node, without any contention or quirk.
func (p *Profile) NominalComm(node topology.NodeID) float64 {
	if int(node) < 0 || int(node) >= len(p.CommNominal) {
		return 0
	}
	return p.CommNominal[node]
}

// profiles holds the hand-tuned hardware behaviour of the six testbed
// platforms. The absolute values are seeded from public hardware specs and
// the numbers the paper reports (per-core NT-store streams around 3–5 GB/s,
// EDR InfiniBand around 11 GB/s, diablo's 12.1/22.4 GB/s locality split,
// occigen's communication never being throttled, …). What the evaluation
// relies on is the *shape* these produce, not the absolute GB/s.
var profiles = map[string]*Profile{
	"henri": {
		PlatformName:     "henri",
		PerCoreLocal:     5.0,
		PerCoreRemote:    3.4,
		CommNominal:      []float64{10.9, 11.3},
		CommFloorFrac:    0.24,
		CommDecayPerCore: 2.4,
		Caps: NodeCaps{
			CoreLocal:  Envelope{Plateau: 66, Knee1: 15, Slope1: 0.55, Soft: 0.6},
			CoreRemote: Envelope{Plateau: 36, Knee1: 12, Slope1: 0.5, Soft: 0.6},
			MixLocal:   Envelope{Plateau: 71, Knee1: 12, Slope1: 2.2, Knee2: 14, Slope2: 0.6, Soft: 0.6},
			MixRemote:  Envelope{Plateau: 41, Knee1: 9, Slope1: 1.8, Knee2: 12, Slope2: 0.5, Soft: 0.6},
		},
		LinkCap: 47,
		PCIeCap: 15.8,
		Quirks: Quirks{
			EarlyCommStart:  10,
			EarlyCommRate:   0.55,
			MeasureNoiseRel: 0.004,
		},
	},
	"henri-subnuma": {
		PlatformName:     "henri-subnuma",
		PerCoreLocal:     5.0,
		PerCoreRemote:    3.4,
		CommNominal:      []float64{10.9, 10.9, 11.3, 11.1},
		CommFloorFrac:    0.24,
		CommDecayPerCore: 2.6,
		Caps: NodeCaps{
			CoreLocal:  Envelope{Plateau: 37, Knee1: 8, Slope1: 0.5, Soft: 0.6},
			CoreRemote: Envelope{Plateau: 27, Knee1: 8, Slope1: 0.4, Soft: 0.6},
			MixLocal:   Envelope{Plateau: 41, Knee1: 6, Slope1: 2.5, Knee2: 8, Slope2: 0.7, Soft: 0.6},
			MixRemote:  Envelope{Plateau: 31.5, Knee1: 6, Slope1: 2.0, Knee2: 9, Slope2: 0.5, Soft: 0.6},
		},
		LinkCap: 47,
		PCIeCap: 15.8,
		Quirks: Quirks{
			EarlyCommStart:  6,
			EarlyCommRate:   0.8,
			MeasureNoiseRel: 0.005,
		},
	},
	"dahu": {
		PlatformName:     "dahu",
		PerCoreLocal:     4.8,
		PerCoreRemote:    3.2,
		CommNominal:      []float64{10.3, 10.0},
		CommFloorFrac:    0.27,
		CommDecayPerCore: 2.5,
		Caps: NodeCaps{
			CoreLocal:  Envelope{Plateau: 58, Knee1: 14, Slope1: 0.4, Soft: 0.7},
			CoreRemote: Envelope{Plateau: 33, Knee1: 10, Slope1: 0.45, Soft: 0.7},
			MixLocal:   Envelope{Plateau: 62, Knee1: 11, Slope1: 2.3, Knee2: 13, Slope2: 1.0, Soft: 0.7},
			MixRemote:  Envelope{Plateau: 38, Knee1: 9, Slope1: 2.1, Knee2: 11, Slope2: 0.5, Soft: 0.7},
		},
		LinkCap: 45,
		PCIeCap: 15.8,
		Quirks: Quirks{
			MeasureNoiseRel: 0.006,
		},
	},
	"diablo": {
		PlatformName:     "diablo",
		PerCoreLocal:     3.6,
		PerCoreRemote:    2.9,
		CommNominal:      []float64{12.1, 22.4},
		CommFloorFrac:    0.5,
		CommDecayPerCore: 2.0,
		Caps: NodeCaps{
			CoreLocal:  Envelope{Plateau: 102, Knee1: 29, Slope1: 0.3, Soft: 0.8},
			CoreRemote: Envelope{Plateau: 88, Knee1: 30, Slope1: 0.3, Soft: 0.8},
			MixLocal:   Envelope{Plateau: 128, Knee1: 31, Slope1: 1.2, Knee2: 32, Slope2: 0.4, Soft: 0.8},
			MixRemote:  Envelope{Plateau: 102, Knee1: 27, Slope1: 1.4, Knee2: 30, Slope2: 0.4, Soft: 0.8},
		},
		LinkCap: 95,
		PCIeCap: 31.5,
		Quirks: Quirks{
			MeasureNoiseRel: 0.004,
		},
	},
	"pyxis": {
		PlatformName:     "pyxis",
		PerCoreLocal:     3.3,
		PerCoreRemote:    2.6,
		CommNominal:      []float64{10.2, 12.6},
		CommFloorFrac:    0.3,
		CommDecayPerCore: 1.6,
		Caps: NodeCaps{
			CoreLocal:  Envelope{Plateau: 95, Knee1: 29, Slope1: 0.5, Soft: 1.2},
			CoreRemote: Envelope{Plateau: 62, Knee1: 24, Slope1: 0.4, Soft: 1.2},
			MixLocal:   Envelope{Plateau: 106, Knee1: 29, Slope1: 2.4, Knee2: 31, Slope2: 0.6, Soft: 1.2},
			MixRemote:  Envelope{Plateau: 72, Knee1: 23, Slope1: 2.0, Knee2: 26, Slope2: 0.5, Soft: 1.2},
		},
		LinkCap: 80,
		PCIeCap: 15.8,
		Quirks: Quirks{
			SoftSaturationGB:      2.5,
			CrossSocketCommFactor: 0.88,
			MeasureNoiseRel:       0.008,
			CommNoiseRel:          0.03,
			ComputeNoiseRel:       0.01,
		},
	},
	"occigen": {
		PlatformName:  "occigen",
		PerCoreLocal:  4.4,
		PerCoreRemote: 3.0,
		CommNominal:   []float64{6.6, 6.8},
		// The paper reports that on occigen communications are never
		// throttled; the hardware keeps the NIC at full rate and
		// squeezes the cores instead (α = 1 in model terms).
		CommFloorFrac: 1.0,
		Caps: NodeCaps{
			CoreLocal:  Envelope{Plateau: 50, Knee1: 12, Slope1: 0.35},
			CoreRemote: Envelope{Plateau: 29, Knee1: 10, Slope1: 0.3},
			MixLocal:   Envelope{Plateau: 58, Knee1: 12, Slope1: 1.8, Knee2: 13, Slope2: 0.4},
			MixRemote:  Envelope{Plateau: 33.5, Knee1: 9, Slope1: 1.6, Knee2: 11, Slope2: 0.35},
		},
		LinkCap: 38,
		PCIeCap: 7.9,
		Quirks: Quirks{
			MeasureNoiseRel: 0.001,
		},
	},
}

// ProfileFor returns the hand-tuned hardware profile of a built-in
// platform. The returned profile is a copy; callers may mutate it.
func ProfileFor(name string) (*Profile, error) {
	p, ok := profiles[name]
	if !ok {
		return nil, fmt.Errorf("memsys: no hardware profile for platform %q", name)
	}
	cp := *p
	cp.CommNominal = append([]float64(nil), p.CommNominal...)
	return &cp, nil
}

// DefaultProfile derives a plausible generic profile for a custom platform
// from its structure alone: ~5 GB/s per core, controller capacity scaled to
// the per-socket core count, EDR-class network. Useful for exploring
// what-if topologies with the model; the six testbed platforms use the
// hand-tuned ProfileFor values instead.
func DefaultProfile(plat *topology.Platform) *Profile {
	coresPerNode := float64(plat.CoresPerSocket()) / float64(plat.NodesPerSocket())
	corePlateau := 0.7 * 5.0 * coresPerNode // cores alone extract ~70 % of their sum
	knee := 0.7 * coresPerNode
	prof := &Profile{
		PlatformName:     plat.Name,
		PerCoreLocal:     5.0,
		PerCoreRemote:    3.5,
		CommNominal:      make([]float64, plat.NNodes()),
		CommFloorFrac:    0.3,
		CommDecayPerCore: 1.6,
		Caps: NodeCaps{
			CoreLocal:  Envelope{Plateau: corePlateau, Knee1: knee + 1, Slope1: 0.5, Soft: 0.6},
			CoreRemote: Envelope{Plateau: 0.55 * corePlateau, Knee1: 0.8 * knee, Slope1: 0.4, Soft: 0.6},
			MixLocal:   Envelope{Plateau: 1.15 * corePlateau, Knee1: knee, Slope1: 2.5, Knee2: knee + 2, Slope2: 0.6, Soft: 0.6},
			MixRemote:  Envelope{Plateau: 0.63 * corePlateau, Knee1: 0.7 * knee, Slope1: 2.0, Knee2: 0.8*knee + 2, Slope2: 0.5, Soft: 0.6},
		},
		LinkCap: 0.75 * corePlateau,
		PCIeCap: 15.8,
		Quirks:  Quirks{MeasureNoiseRel: 0.005},
	}
	for i := range prof.CommNominal {
		prof.CommNominal[i] = 11.0
	}
	return prof
}
