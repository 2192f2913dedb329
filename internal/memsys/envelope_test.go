package memsys

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEnvelopeFlat(t *testing.T) {
	e := Envelope{Plateau: 50}
	for _, n := range []float64{0, 1, 10, 100} {
		if e.At(n) != 50 {
			t.Errorf("Envelope{Plateau: 50}.At(%v) = %v", n, e.At(n))
		}
	}
}

func TestEnvelopePiecewiseSharp(t *testing.T) {
	e := Envelope{Plateau: 70, Knee1: 10, Slope1: 2, Knee2: 14, Slope2: 0.5}
	cases := []struct{ n, want float64 }{
		{5, 70},
		{10, 70},
		{12, 66},           // 70 − 2·2
		{14, 62},           // end of first decline
		{18, 62 - 0.5*4},   // second slope
		{100, 62 - 0.5*86}, // far out, still linear
	}
	for _, c := range cases {
		if got := e.At(c.n); !almost(got, c.want, 1e-9) {
			t.Errorf("At(%v) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestEnvelopeSingleKnee(t *testing.T) {
	e := Envelope{Plateau: 30, Knee1: 8, Slope1: 0.5}
	if got := e.At(12); !almost(got, 28, 1e-9) {
		t.Errorf("single-knee At(12) = %v, want 28", got)
	}
}

func TestEnvelopeNonNegative(t *testing.T) {
	e := Envelope{Plateau: 10, Knee1: 1, Slope1: 5}
	if got := e.At(100); got != 0 {
		t.Errorf("deeply declined envelope must clamp to 0, got %v", got)
	}
}

func TestEnvelopeSoftApproximation(t *testing.T) {
	sharp := Envelope{Plateau: 70, Knee1: 10, Slope1: 2, Knee2: 14, Slope2: 0.5}
	soft := sharp
	soft.Soft = 0.6
	// Far from the knees the soft envelope must agree with the sharp one.
	for _, n := range []float64{2, 5, 20, 30} {
		if d := math.Abs(sharp.At(n) - soft.At(n)); d > 0.2 {
			t.Errorf("soft envelope deviates %.3f at n=%v (far from knees)", d, n)
		}
	}
	// Near the knee the soft envelope is below the sharp plateau but
	// within Slope1·Soft·ln2-ish.
	d := sharp.At(10) - soft.At(10)
	if d <= 0 || d > 2*0.6*2 {
		t.Errorf("soft rounding at knee = %v, want small positive", d)
	}
}

func TestEnvelopeMonotoneNonIncreasing(t *testing.T) {
	f := func(plateau8, k1, dk uint8, s1, s2 uint8) bool {
		e := Envelope{
			Plateau: float64(plateau8%100) + 1,
			Knee1:   float64(k1 % 32),
			Slope1:  float64(s1%40) / 10,
			Soft:    0.5,
		}
		e.Knee2 = e.Knee1 + float64(dk%16)
		// Keep Slope2 ≤ Slope1 so the curve is convex-ish like real
		// controllers; monotonicity must hold regardless.
		e.Slope2 = math.Min(float64(s2%40)/10, e.Slope1)
		prev := e.At(0)
		for n := 1.0; n <= 64; n++ {
			cur := e.At(n)
			if cur > prev+1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error("envelope must be non-increasing:", err)
	}
}

func TestEnvelopeValidate(t *testing.T) {
	good := Envelope{Plateau: 50, Knee1: 5, Slope1: 1, Knee2: 8, Slope2: 0.5, Soft: 0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid envelope rejected: %v", err)
	}
	bad := []Envelope{
		{Plateau: 0},
		{Plateau: 10, Slope1: -1},
		{Plateau: 10, Knee1: 5, Knee2: 3},
		{Plateau: 10, Soft: -0.1},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("bad envelope %d accepted", i)
		}
	}
}

func TestHinge(t *testing.T) {
	if hinge(-3, 0) != 0 || hinge(3, 0) != 3 {
		t.Error("sharp hinge must be max(0,x)")
	}
	// Soft hinge: positive everywhere, converges to x for large x.
	if hinge(-100, 1) != 0 {
		t.Error("soft hinge far negative must be 0")
	}
	if got := hinge(100, 1); !almost(got, 100, 1e-6) {
		t.Errorf("soft hinge far positive = %v, want 100", got)
	}
	if got := hinge(0, 1); !almost(got, math.Ln2, 1e-9) {
		t.Errorf("soft hinge at 0 = %v, want ln2", got)
	}
}

func TestSoftmin(t *testing.T) {
	if softmin(3, 7, 0) != 3 {
		t.Error("softmin with k=0 must be hard min")
	}
	// Far apart: approaches the minimum.
	if got := softmin(3, 100, 1); !almost(got, 3, 1e-6) {
		t.Errorf("softmin(3,100,1) = %v, want ≈3", got)
	}
	// Equal inputs: dips below by k·ln2.
	if got := softmin(10, 10, 2); !almost(got, 10-2*math.Ln2, 1e-9) {
		t.Errorf("softmin(10,10,2) = %v, want %v", got, 10-2*math.Ln2)
	}
	// Symmetry and bound: softmin ≤ min.
	f := func(a8, b8, k8 uint8) bool {
		a, b, k := float64(a8)+1, float64(b8)+1, float64(k8%50)/10
		s1, s2 := softmin(a, b, k), softmin(b, a, k)
		return almost(s1, s2, 1e-9) && s1 <= math.Min(a, b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEnvelopeTables: on every built-in profile, each of New's four
// envelope tables holds exactly — bit for bit — Envelope.At at 0..NCores
// streams, and a count past the table falls back to the same value.
func TestEnvelopeTables(t *testing.T) {
	forEachSystem(t, func(name string, sys *System) {
		nc := sys.Platform().NCores()
		caps := sys.Profile().Caps
		for _, c := range []struct {
			env   string
			want  Envelope
			table *envTable
		}{
			{"CoreLocal", caps.CoreLocal, &sys.coreLocal},
			{"CoreRemote", caps.CoreRemote, &sys.coreRemote},
			{"MixLocal", caps.MixLocal, &sys.mixLocal},
			{"MixRemote", caps.MixRemote, &sys.mixRemote},
		} {
			if len(c.table.at) != nc+1 {
				t.Fatalf("%s %s: %d entries, want %d", name, c.env, len(c.table.at), nc+1)
			}
			for n := 0; n <= nc+64; n++ {
				got, want := c.table.eval(n), c.want.At(float64(n))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s %s at %d streams: %v, Envelope.At gives %v", name, c.env, n, got, want)
				}
			}
		}
	})
}
