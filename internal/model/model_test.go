package model

import (
	"encoding/json"
	"testing"
)

// refModel builds a model with distinguishable local and remote
// instantiations (remote is slower, like a real machine).
func refModel(nodesPerSocket int) Model {
	local := refParams()
	remote := Params{
		NParMax: 8, TParMax: 40,
		NSeqMax: 10, TSeqMax: 34,
		TPar2:  36,
		DeltaL: 2.0, DeltaR: 0.5,
		BCompSeq: 3.4,
		BCommSeq: 11.5,
		Alpha:    0.25,
	}
	return Model{Local: local, Remote: remote, NodesPerSocket: nodesPerSocket}
}

func TestEquation7CompSelection(t *testing.T) {
	m := refModel(1)
	n := 6
	cases := []struct {
		pl   Placement
		want float64
	}{
		// local + same node: local parallel model.
		{Placement{Comp: 0, Comm: 0}, m.Local.CompPar(n)},
		// local + different node: local alone model.
		{Placement{Comp: 0, Comm: 1}, m.Local.CompAlone(n)},
		// remote + same node: remote parallel model.
		{Placement{Comp: 1, Comm: 1}, m.Remote.CompPar(n)},
		// remote + different node: remote alone model.
		{Placement{Comp: 1, Comm: 0}, m.Remote.CompAlone(n)},
	}
	for _, c := range cases {
		if got := m.PredictComp(n, c.pl); got != c.want {
			t.Errorf("PredictComp(%d, %v) = %v, want %v", n, c.pl, got, c.want)
		}
	}
}

func TestEquation6CommSelection(t *testing.T) {
	m := refModel(1)
	n := 16 // saturated in the local model
	// Case 1: both remote, same node → remote model.
	if got := m.PredictComm(n, Placement{Comp: 1, Comm: 1}); got != m.Remote.CommPar(n) {
		t.Errorf("remote/same: %v, want remote model", got)
	}
	// Case 2: comm remote (comp local) → local model with the remote
	// nominal bandwidth substituted.
	sub := m.Local
	sub.BCommSeq = m.Remote.BCommSeq
	if got := m.PredictComm(n, Placement{Comp: 0, Comm: 1}); got != sub.CommPar(n) {
		t.Errorf("comm remote: %v, want local model with remote Bcomm_seq (%v)", got, sub.CommPar(n))
	}
	// Case 3 (otherwise): comm local → plain local model, even with
	// remote computations.
	if got := m.PredictComm(n, Placement{Comp: 1, Comm: 0}); got != m.Local.CommPar(n) {
		t.Errorf("comm local: %v, want local model", got)
	}
	if got := m.PredictComm(n, Placement{Comp: 0, Comm: 0}); got != m.Local.CommPar(n) {
		t.Errorf("both local: %v, want local model", got)
	}
}

func TestSubstitutionMatters(t *testing.T) {
	// The Bcomm_seq substitution of equation (6) must actually change
	// the prediction when the network is locality-sensitive.
	m := refModel(1)
	n := 4 // unsaturated: comm = min(leftover, BCommSeq) = BCommSeq
	local := m.PredictComm(n, Placement{Comp: 0, Comm: 0})
	cross := m.PredictComm(n, Placement{Comp: 0, Comm: 1})
	if local == cross {
		t.Error("locality-sensitive nominal bandwidth must differ between comm placements")
	}
	if cross != m.Remote.BCommSeq {
		t.Errorf("unsaturated cross comm = %v, want remote nominal %v", cross, m.Remote.BCommSeq)
	}
}

func TestSubnumaPlacementClasses(t *testing.T) {
	// With #m = 2 (henri-subnuma), nodes 0,1 are local and 2,3 remote.
	m := refModel(2)
	n := 6
	// comp@1/comm@0: both local, different nodes → comp alone.
	if got := m.PredictComp(n, Placement{Comp: 1, Comm: 0}); got != m.Local.CompAlone(n) {
		t.Error("local different nodes must use the alone model")
	}
	// comp@2/comm@2: same remote node → remote parallel.
	if got := m.PredictComp(n, Placement{Comp: 2, Comm: 2}); got != m.Remote.CompPar(n) {
		t.Error("same remote node must use the remote parallel model")
	}
	// comp@2/comm@3: different remote nodes → comm gets local shape with
	// remote nominal; comp gets remote alone.
	sub := m.Local
	sub.BCommSeq = m.Remote.BCommSeq
	if got := m.PredictComm(n, Placement{Comp: 2, Comm: 3}); got != sub.CommPar(n) {
		t.Error("different remote nodes: comm must use substituted local model")
	}
	if got := m.PredictComp(n, Placement{Comp: 2, Comm: 3}); got != m.Remote.CompAlone(n) {
		t.Error("different remote nodes: comp must use remote alone model")
	}
}

func TestPredictValidation(t *testing.T) {
	m := refModel(1)
	if _, err := m.Predict(0, Placement{}); err == nil {
		t.Error("n=0 must error")
	}
	if _, err := m.Predict(1, Placement{Comp: 5, Comm: 0}); err == nil {
		t.Error("out-of-range placement must error")
	}
	if _, err := m.Predict(1, Placement{Comp: 0, Comm: -1}); err == nil {
		t.Error("negative node must error")
	}
	if _, err := m.Predict(4, Placement{Comp: 0, Comm: 1}); err != nil {
		t.Errorf("valid predict failed: %v", err)
	}
}

func TestPredictCurve(t *testing.T) {
	m := refModel(1)
	preds, err := m.PredictCurve(18, Placement{Comp: 0, Comm: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 18 {
		t.Fatalf("curve length %d", len(preds))
	}
	for i, p := range preds {
		one, err := m.Predict(i+1, Placement{Comp: 0, Comm: 0})
		if err != nil {
			t.Fatal(err)
		}
		if p != one {
			t.Errorf("curve[%d] differs from point prediction", i)
		}
	}
	if _, err := m.PredictCurve(0, Placement{}); err == nil {
		t.Error("nMax=0 must error")
	}
}

func TestSamplePlacements(t *testing.T) {
	m := refModel(2)
	local, remote := m.SamplePlacements()
	if local != (Placement{Comp: 0, Comm: 0}) {
		t.Errorf("local sample = %v", local)
	}
	if remote != (Placement{Comp: 2, Comm: 2}) {
		t.Errorf("remote sample = %v (first node of socket 1)", remote)
	}
	if !m.IsSample(local) || !m.IsSample(remote) {
		t.Error("samples must be recognised")
	}
	if m.IsSample(Placement{Comp: 0, Comm: 1}) {
		t.Error("non-sample recognised as sample")
	}
}

func TestModelValidate(t *testing.T) {
	m := refModel(1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.NodesPerSocket = 0
	if err := m.Validate(); err == nil {
		t.Error("zero nodes per socket must fail")
	}
	m = refModel(1)
	m.Local.Alpha = -1
	if err := m.Validate(); err == nil {
		t.Error("invalid local params must fail")
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	m := refModel(2)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Error("JSON round trip changed the model")
	}
	// Decoding an invalid model must fail (UnmarshalJSON validates).
	if err := json.Unmarshal([]byte(`{"nodes_per_socket":0}`), &back); err == nil {
		t.Error("invalid JSON model accepted")
	}
}

func TestPlacementString(t *testing.T) {
	for _, c := range []struct {
		pl   Placement
		want string
	}{
		{Placement{Comp: 2, Comm: 0}, "comp@2/comm@0"},
		{Placement{Comp: 7, Comm: 7}, "comp@7/comm@7"},
		{Placement{Comp: 8, Comm: 1}, "comp@8/comm@1"},
		{Placement{Comp: 1, Comm: 12}, "comp@1/comm@12"},
		{Placement{Comp: -1, Comm: 0}, "comp@-1/comm@0"},
	} {
		if got := c.pl.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.pl, got, c.want)
		}
	}
	// Node ids 0–7 cover every testbed platform: no allocation.
	if got := testing.AllocsPerRun(100, func() { _ = Placement{Comp: 1, Comm: 3}.String() }); got != 0 {
		t.Errorf("Placement.String allocates %v times per call, want 0", got)
	}
}

func TestModelString(t *testing.T) {
	if s := refModel(1).String(); len(s) == 0 {
		t.Error("empty model string")
	}
}
