package model

import (
	"encoding/json"
	"errors"
	"fmt"

	"memcontention/internal/topology"
)

// Placement is one data-placement configuration: the NUMA nodes holding
// the computation data (mcomp) and the communication data (mcomm).
type Placement struct {
	Comp topology.NodeID `json:"comp"`
	Comm topology.NodeID `json:"comm"`
}

// String renders the placement the way the paper's subplot titles do.
// Node ids 0–7, which cover every testbed platform, return a precomputed
// name and allocate nothing.
func (pl Placement) String() string {
	if uint(pl.Comp) < uint(len(placementNames)) && uint(pl.Comm) < uint(len(placementNames)) {
		return placementNames[pl.Comp][pl.Comm]
	}
	return fmt.Sprintf(placementFormat, pl.Comp, pl.Comm)
}

const placementFormat = "comp@%d/comm@%d"

// placementNames holds Placement.String for node ids 0–7.
var placementNames = func() (names [8][8]string) {
	for comp := range names {
		for comm := range names[comp] {
			names[comp][comm] = fmt.Sprintf(placementFormat, comp, comm)
		}
	}
	return names
}()

// Prediction is the model output for one (n, placement) input.
type Prediction struct {
	// Comp is the predicted memory bandwidth for computations (GB/s).
	Comp float64 `json:"comp"`
	// Comm is the predicted bandwidth for communications (GB/s).
	Comm float64 `json:"comm"`
}

// Model combines the local and remote instantiations with the machine's
// NUMA layout (§III-C). It predicts bandwidths for every placement from
// the two calibrated sample placements.
type Model struct {
	// Local describes accesses to the computing socket's first NUMA
	// node, Remote accesses to the other socket's first NUMA node.
	Local  Params `json:"local"`
	Remote Params `json:"remote"`
	// NodesPerSocket is #m in equations (6) and (7); nodes ≥ #m are on
	// the remote socket.
	NodesPerSocket int `json:"nodes_per_socket"`
}

// Validate checks both instantiations and the layout.
func (m Model) Validate() error {
	var errs []error
	if err := m.Local.Validate(); err != nil {
		errs = append(errs, fmt.Errorf("local instantiation: %w", err))
	}
	if err := m.Remote.Validate(); err != nil {
		errs = append(errs, fmt.Errorf("remote instantiation: %w", err))
	}
	if m.NodesPerSocket < 1 {
		errs = append(errs, fmt.Errorf("NodesPerSocket must be ≥ 1, got %d", m.NodesPerSocket))
	}
	return errors.Join(errs...)
}

// isRemote reports whether a node index designates the remote socket
// (m ≥ #m in the paper's numbering).
func (m Model) isRemote(node topology.NodeID) bool {
	return int(node) >= m.NodesPerSocket
}

// PredictComm is equation (6): the communication bandwidth with n
// computing cores under the given placement.
//
//	Bcomm_par(Mremote, n)                       if mcomp ≥ #m and mcomp = mcomm
//	Bcomm_par(Mlocal ← Bcomm_seq(Mremote), n)   else if mcomm ≥ #m
//	Bcomm_par(Mlocal, n)                        otherwise
func (m Model) PredictComm(n int, pl Placement) float64 {
	switch {
	case m.isRemote(pl.Comp) && pl.Comp == pl.Comm:
		return m.Remote.CommPar(n)
	case m.isRemote(pl.Comm):
		// Local contention shape, but the network's nominal rate for
		// remote data (§III-C: machines whose network performance is
		// sensitive to data locality).
		p := m.Local
		p.BCommSeq = m.Remote.BCommSeq
		return p.CommPar(n)
	default:
		return m.Local.CommPar(n)
	}
}

// PredictComp is equation (7): the computation bandwidth with n computing
// cores under the given placement. Computations only suffer contention
// when both streams share a NUMA node; otherwise they get their nominal
// (alone) bandwidth.
func (m Model) PredictComp(n int, pl Placement) float64 {
	local := !m.isRemote(pl.Comp)
	same := pl.Comp == pl.Comm
	switch {
	case local && same:
		return m.Local.CompPar(n)
	case local && !same:
		return m.Local.CompAlone(n)
	case !local && same:
		return m.Remote.CompPar(n)
	default:
		return m.Remote.CompAlone(n)
	}
}

// Predict returns both bandwidths for one (n, placement) input.
// n must be ≥ 1 (the model is defined for at least one computing core).
func (m Model) Predict(n int, pl Placement) (Prediction, error) {
	if n < 1 {
		return Prediction{}, fmt.Errorf("model: n must be ≥ 1, got %d", n)
	}
	if pl.Comp < 0 || pl.Comm < 0 || int(pl.Comp) >= 2*m.NodesPerSocket || int(pl.Comm) >= 2*m.NodesPerSocket {
		return Prediction{}, fmt.Errorf("model: placement %v out of range for %d nodes/socket", pl, m.NodesPerSocket)
	}
	return Prediction{
		Comp: m.PredictComp(n, pl),
		Comm: m.PredictComm(n, pl),
	}, nil
}

// PredictCurve returns predictions for n = 1..nMax under one placement.
func (m Model) PredictCurve(nMax int, pl Placement) ([]Prediction, error) {
	if nMax < 1 {
		return nil, fmt.Errorf("model: nMax must be ≥ 1, got %d", nMax)
	}
	out := make([]Prediction, nMax)
	for n := 1; n <= nMax; n++ {
		p, err := m.Predict(n, pl)
		if err != nil {
			return nil, err
		}
		out[n-1] = p
	}
	return out, nil
}

// SamplePlacements returns the two placements used to instantiate the
// model (§IV-A2): both streams on the first local node, and both on the
// first remote node.
func (m Model) SamplePlacements() (local, remote Placement) {
	return Placement{Comp: 0, Comm: 0},
		Placement{Comp: topology.NodeID(m.NodesPerSocket), Comm: topology.NodeID(m.NodesPerSocket)}
}

// IsSample reports whether a placement is one of the two calibration
// samples.
func (m Model) IsSample(pl Placement) bool {
	l, r := m.SamplePlacements()
	return pl == l || pl == r
}

// UnmarshalJSON decodes the default struct encoding, which the model
// also encodes to, and validates the result.
func (m *Model) UnmarshalJSON(data []byte) error {
	type alias Model
	var a alias
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*m = Model(a)
	return m.Validate()
}

// String renders the combined model.
func (m Model) String() string {
	return fmt.Sprintf("Model{#m=%d\n  local:  %s\n  remote: %s\n}", m.NodesPerSocket, m.Local, m.Remote)
}
