package rng

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42, "bench|henri|n=3")
	b := New(42, "bench|henri|n=3")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical keys diverged at draw %d", i)
		}
	}
}

func TestLabelIndependence(t *testing.T) {
	a := New(42, "label-a")
	b := New(42, "label-b")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Errorf("different labels produced %d identical draws", same)
	}
}

func TestSeedIndependence(t *testing.T) {
	a := New(1, "x")
	b := New(2, "x")
	if a.Uint64() == b.Uint64() {
		t.Error("different seeds must produce different streams")
	}
}

func TestDerive(t *testing.T) {
	parent := New(7, "parent")
	stateBefore := parent.state
	c1 := parent.Derive("rep0")
	c2 := parent.Derive("rep0")
	if parent.state != stateBefore {
		t.Error("Derive must not advance the parent")
	}
	if c1.Uint64() != c2.Uint64() {
		t.Error("identical derivations must match")
	}
	c3 := parent.Derive("rep1")
	if c3.Uint64() == New(7, "parent").Derive("rep0").Uint64() {
		t.Error("different derivation labels must differ")
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed, "f")
		for i := 0; i < 20; i++ {
			v := s.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntn(t *testing.T) {
	s := New(3, "intn")
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit %d/7 values in 200 draws", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	s.Intn(0)
}

func TestNormalMoments(t *testing.T) {
	s := New(11, "normal")
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Errorf("normal mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ≈1", variance)
	}
}

func TestJitterBounds(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed, "jitter")
		const rel = 0.01
		for i := 0; i < 50; i++ {
			j := s.Jitter(rel)
			if j < 1-4*rel || j > 1+4*rel {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if New(1, "z").Jitter(0) != 1 {
		t.Error("Jitter(0) must be exactly 1")
	}
}

func TestJitterCentered(t *testing.T) {
	s := New(99, "jc")
	const n = 10000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Jitter(0.05)
	}
	if math.Abs(sum/n-1) > 0.005 {
		t.Errorf("jitter mean = %v, want ≈1", sum/n)
	}
}

// TestKeyMatchesLabel: a key fed piece by piece (strings and decimal
// ints) gives bit-identical streams to New and Derive on the label the
// pieces spell, for the noise labels of internal/bench.
func TestKeyMatchesLabel(t *testing.T) {
	metrics := []string{"comp_alone", "comm_alone", "comp_par", "comm_par",
		"mixed_comp_alone", "mixed_comm_alone", "mixed_comp_par", "mixed_comm_par"}
	for _, v := range []int{0, 9, 10, 64, 1 << 20, -1, math.MinInt64} {
		for _, metric := range metrics {
			label := fmt.Sprintf("henri|nt-memset|comp@%d/comm@%d|n=%d|%s", v, v+1, v, metric)
			key := Label("henri").Str("|nt-memset|comp@").Int(v).Str("/comm@").Int(v + 1).
				Str("|n=").Int(v).Str("|").Str(metric)
			if key != Label(label) {
				t.Fatalf("key of %q differs from the label's", label)
			}
			parent := New(42, label)
			got := key.Stream(42)
			if got != *parent {
				t.Fatalf("%q: Key.Stream differs from New", label)
			}
			rep := fmt.Sprintf("rep%d", v)
			if child := got.Child(Label("rep").Int(v)); child != *parent.Derive(rep) {
				t.Fatalf("%q: Child(%s) differs from Derive", label, rep)
			}
		}
	}
}
