package calib

import (
	"math"
	"testing"

	"memcontention/internal/bench"
	"memcontention/internal/model"
	"memcontention/internal/topology"
)

// syntheticCurve builds a benchmark curve directly from a known parameter
// set using the model's own equations — calibration must then recover the
// parameters (a fixed point of the §IV-A2 pipeline).
func syntheticCurve(p model.Params, nCores int) *bench.Curve {
	c := &bench.Curve{Platform: "synthetic", Placement: model.Placement{Comp: 0, Comm: 0}}
	for n := 1; n <= nCores; n++ {
		c.Points = append(c.Points, bench.Point{
			N:         n,
			CompAlone: p.CompAlone(n),
			CommAlone: p.BCommSeq,
			CompPar:   p.CompPar(n),
			CommPar:   p.CommPar(n),
		})
	}
	return c
}

func refParams() model.Params {
	return model.Params{
		NParMax: 12, TParMax: 71,
		NSeqMax: 14, TSeqMax: 66,
		TPar2:  67,
		DeltaL: 2.0, DeltaR: 0.6,
		BCompSeq: 5.0,
		BCommSeq: 11.0,
		Alpha:    0.25,
	}
}

func TestCalibrateRecoversKnownParams(t *testing.T) {
	want := refParams()
	got, err := Calibrate(syntheticCurve(want, 18))
	if err != nil {
		t.Fatal(err)
	}
	if got.BCompSeq != want.BCompSeq {
		t.Errorf("BCompSeq = %v, want %v", got.BCompSeq, want.BCompSeq)
	}
	if math.Abs(got.BCommSeq-want.BCommSeq) > 1e-9 {
		t.Errorf("BCommSeq = %v, want %v", got.BCommSeq, want.BCommSeq)
	}
	if got.NSeqMax != want.NSeqMax {
		t.Errorf("NSeqMax = %d, want %d", got.NSeqMax, want.NSeqMax)
	}
	if math.Abs(got.TSeqMax-want.TSeqMax) > 1e-9 {
		t.Errorf("TSeqMax = %v, want %v", got.TSeqMax, want.TSeqMax)
	}
	if math.Abs(got.Alpha-want.Alpha) > 1e-9 {
		t.Errorf("Alpha = %v, want %v", got.Alpha, want.Alpha)
	}
	// The stacked total of the synthetic curve peaks where the model's
	// equations put it; the recovered knees must be close.
	if got.NParMax < want.NParMax-1 || got.NParMax > want.NParMax+1 {
		t.Errorf("NParMax = %d, want ≈%d", got.NParMax, want.NParMax)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("recovered params invalid: %v", err)
	}
}

// TestCalibrateWithAllocs: a calibration reads the curve's four series
// into one block and allocates nothing else.
func TestCalibrateWithAllocs(t *testing.T) {
	curve := syntheticCurve(refParams(), 18)
	got := testing.AllocsPerRun(100, func() {
		if _, err := CalibrateWith(curve, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Errorf("CalibrateWith allocates %v times per call, want 1", got)
	}
}

func TestCalibratePredictionFixedPoint(t *testing.T) {
	// Predicting the synthetic curve with the recovered parameters must
	// reproduce it closely (the pipeline is approximately idempotent).
	want := refParams()
	curve := syntheticCurve(want, 18)
	got, err := Calibrate(curve)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range curve.Points {
		if e := math.Abs(got.CompPar(pt.N)-pt.CompPar) / math.Max(pt.CompPar, 1); e > 0.06 {
			t.Errorf("n=%d: recovered CompPar off by %.1f%%", pt.N, 100*e)
		}
		if e := math.Abs(got.CommPar(pt.N)-pt.CommPar) / math.Max(pt.CommPar, 1); e > 0.12 {
			t.Errorf("n=%d: recovered CommPar off by %.1f%%", pt.N, 100*e)
		}
	}
}

func TestCalibrateNoContentionPlatform(t *testing.T) {
	// A machine whose total keeps growing to the last core (diablo
	// local): NParMax must collapse to NSeqMax and the deltas stay
	// small; calibration must not fail.
	var c bench.Curve
	c.Platform = "flat"
	for n := 1; n <= 16; n++ {
		comp := math.Min(float64(n)*3.0, 45)
		c.Points = append(c.Points, bench.Point{
			N: n, CompAlone: comp, CommAlone: 12, CompPar: comp, CommPar: 12,
		})
	}
	p, err := Calibrate(&c)
	if err != nil {
		t.Fatal(err)
	}
	if p.NParMax > p.NSeqMax {
		t.Errorf("NParMax %d must not exceed NSeqMax %d", p.NParMax, p.NSeqMax)
	}
	if p.Alpha < 0.99 {
		t.Errorf("contention-free platform must calibrate α ≈ 1, got %v", p.Alpha)
	}
}

func TestCalibrateErrors(t *testing.T) {
	if _, err := Calibrate(nil); err == nil {
		t.Error("nil curve must fail")
	}
	if _, err := Calibrate(&bench.Curve{}); err == nil {
		t.Error("empty curve must fail")
	}
	sparse := syntheticCurve(refParams(), 18)
	sparse.Points = append(sparse.Points[:3], sparse.Points[5:]...) // hole at n=4
	if _, err := Calibrate(sparse); err == nil {
		t.Error("non-dense n coverage must fail")
	}
	zero := syntheticCurve(refParams(), 18)
	for i := range zero.Points {
		zero.Points[i].CommAlone = 0
	}
	if _, err := Calibrate(zero); err == nil {
		t.Error("zero comm bandwidth must fail")
	}
}

func TestCalibrateModelCombines(t *testing.T) {
	local := syntheticCurve(refParams(), 18)
	remoteParams := refParams()
	remoteParams.BCompSeq = 3.4
	remoteParams.NParMax, remoteParams.NSeqMax = 8, 10
	remoteParams.TParMax, remoteParams.TSeqMax, remoteParams.TPar2 = 40, 34, 36
	remote := syntheticCurve(remoteParams, 18)
	remote.Placement = model.Placement{Comp: 1, Comm: 1}

	m, err := CalibrateModel(local, remote, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.NodesPerSocket != 1 {
		t.Error("nodes per socket lost")
	}
	if m.Local.BCompSeq != 5.0 || m.Remote.BCompSeq != 3.4 {
		t.Error("local/remote instantiations mixed up")
	}
	if _, err := CalibrateModel(nil, remote, 1); err == nil {
		t.Error("nil local curve must fail")
	}
	if _, err := CalibrateModel(local, nil, 1); err == nil {
		t.Error("nil remote curve must fail")
	}
	if _, err := CalibrateModel(local, remote, 0); err == nil {
		t.Error("zero nodes per socket must fail")
	}
}

func TestCalibrateRunnerEndToEnd(t *testing.T) {
	for _, plat := range topology.Testbed() {
		runner, err := bench.NewRunner(bench.Config{Platform: plat, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		m, err := CalibrateRunner(runner)
		if err != nil {
			t.Fatalf("%s: %v", plat.Name, err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: calibrated model invalid: %v", plat.Name, err)
		}
		if m.NodesPerSocket != plat.NodesPerSocket() {
			t.Errorf("%s: #m = %d, want %d", plat.Name, m.NodesPerSocket, plat.NodesPerSocket())
		}
		// Remote accesses extract less bandwidth than local ones.
		if m.Remote.TSeqMax >= m.Local.TSeqMax {
			t.Errorf("%s: remote TSeqMax %v must be below local %v", plat.Name, m.Remote.TSeqMax, m.Local.TSeqMax)
		}
		if m.Remote.BCompSeq >= m.Local.BCompSeq {
			t.Errorf("%s: remote per-core bandwidth must be below local", plat.Name)
		}
	}
}

func TestCalibrateWithOptions(t *testing.T) {
	// A very noisy plateau trips the default knee detection; smoothing
	// recovers the correct NSeqMax.
	want := refParams()
	curve := syntheticCurve(want, 18)
	// Inject a spike at n=17 on the compute-alone plateau tail.
	curve.Points[16].CompAlone *= 1.02
	plain, err := CalibrateWith(curve, Options{PlateauTol: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	smoothed, err := CalibrateWith(curve, Options{PlateauTol: 0.001, SmoothWindow: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plain.NSeqMax != 17 {
		t.Errorf("tight tolerance must chase the spike (NSeqMax=%d)", plain.NSeqMax)
	}
	if smoothed.NSeqMax >= 17 {
		t.Errorf("smoothing must ignore the spike, got NSeqMax=%d", smoothed.NSeqMax)
	}
	// Defaults apply when fields are zero.
	def, err := CalibrateWith(syntheticCurve(want, 18), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Calibrate(syntheticCurve(want, 18))
	if err != nil {
		t.Fatal(err)
	}
	if def != ref {
		t.Error("zero options must equal defaults")
	}
}

func TestCalibrateModelWithOptions(t *testing.T) {
	local := syntheticCurve(refParams(), 18)
	remoteParams := refParams()
	remoteParams.BCompSeq = 3.4
	remote := syntheticCurve(remoteParams, 18)
	remote.Placement = model.Placement{Comp: 1, Comm: 1}
	m, err := CalibrateModelWith(local, remote, 1, Options{SmoothWindow: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCalibrateRunner times the calibration layer on henri: a fresh
// runner, its two sample sweeps and the parameter fit per iteration.
func BenchmarkCalibrateRunner(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := bench.NewRunner(bench.Config{Platform: topology.Henri(), Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := CalibrateRunner(r); err != nil {
			b.Fatal(err)
		}
	}
}
