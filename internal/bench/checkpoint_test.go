package bench

import (
	"context"
	"errors"
	"strings"
	"testing"

	"memcontention/internal/model"
	"memcontention/internal/topology"
)

func TestScopeKeyDistinguishesConfigs(t *testing.T) {
	base := Config{Platform: topology.Henri()}
	r1, err := NewRunner(base)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(r1.Scope(), "bench|henri|") {
		t.Fatalf("scope = %q", r1.Scope())
	}
	variants := []Config{
		{Platform: topology.Henri(), Seed: 2},
		{Platform: topology.Henri(), Repeats: 5},
		{Platform: topology.Henri(), Bidirectional: true},
		{Platform: topology.Dahu()},
	}
	for i, cfg := range variants {
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Scope() == r1.Scope() {
			t.Errorf("variant %d shares scope %q with the base config", i, r1.Scope())
		}
	}
	// Same config twice → same scope (stable key for resume).
	r2, err := NewRunner(base)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Scope() != r2.Scope() {
		t.Errorf("scope not stable: %q vs %q", r1.Scope(), r2.Scope())
	}
}

func TestRunPlacementCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := NewRunner(Config{Platform: topology.Henri(), Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.RunPlacement(model.Placement{Comp: 0, Comm: 0})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBackgroundContextIsFree(t *testing.T) {
	r, err := NewRunner(Config{Platform: topology.Henri(), Context: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunPlacement(model.Placement{Comp: 0, Comm: 0}); err != nil {
		t.Fatal(err)
	}
}
