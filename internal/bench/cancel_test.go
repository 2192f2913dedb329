package bench

import (
	"context"
	"errors"
	"testing"

	"memcontention/internal/model"
	"memcontention/internal/topology"
)

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
