package campaign

import (
	"bytes"
	"context"
	"testing"

	"memcontention/internal/checkpoint"
	"memcontention/internal/eval"
	"memcontention/internal/export"
	"memcontention/internal/faults"
	"memcontention/internal/topology"
)

// testNames keeps campaign tests fast: two platforms cover the sample and
// non-sample placement categories.
var testNames = []string{"henri", "henri-subnuma"}

func testPlan() *faults.Plan {
	return &faults.Plan{
		Seed: 7,
		Events: []faults.Event{
			{At: 0.001, Kind: faults.LinkDegrade, Factor: 0.5, Duration: 0.01},
			{At: 0.002, Kind: faults.MsgDelay, Extra: 0.001, Probability: 0.5, Duration: 0.05},
		},
	}
}

// TestCrossCheckUnderFaultPlan: a cross-check run under a fault plan
// records the plan it ran under in its outcome.
func TestCrossCheckUnderFaultPlan(t *testing.T) {
	res, err := CrossCheck(Config{Seed: 1, FaultPlan: testPlan()}, "henri")
	if err != nil {
		t.Fatal(err)
	}
	if res.Platform != "henri" || res.PlanSeed != 7 || res.PlanEvents != 2 {
		t.Fatalf("plan metadata not recorded: %+v", res)
	}
}

// TestCrossCheckCancellationIsNotAnOutcome: a cross-check on a canceled
// context returns the cancellation and no result, with or without a
// fault plan. Under a plan a failed run is an outcome, so only this
// branch keeps a cancellation from being reported as one.
func TestCrossCheckCancellationIsNotAnOutcome(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, plan := range []*faults.Plan{nil, testPlan()} {
		res, err := CrossCheck(Config{Seed: 1, Context: ctx, FaultPlan: plan}, "henri")
		if !checkpoint.IsCanceled(err) || res != nil {
			t.Errorf("plan %v: got %+v, %v; want no result and a cancellation", plan != nil, res, err)
		}
	}
}

// TestReplicateIndependentOfWorkersAndBase: the replication summary is
// the same bytes whether the base-seed evaluations are reused or
// measured again, and at any worker count.
func TestReplicateIndependentOfWorkersAndBase(t *testing.T) {
	marshal := func(base []*eval.PlatformResult, workers int) []byte {
		t.Helper()
		cfg := Config{Seed: 1, Workers: workers, Replications: 3}
		rep, err := Replicate(cfg, testNames, base)
		if err != nil {
			t.Fatal(err)
		}
		data, err := export.MarshalIndent(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := marshal(nil, 1)
	for _, workers := range []int{1, 6} {
		base, err := EvaluatePlatforms(Config{Seed: 1, Workers: workers}, testNames)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshal(base, workers), want) {
			t.Errorf("workers=%d: summary with the base reused differs from the sequential one", workers)
		}
		if !bytes.Equal(marshal(nil, workers), want) {
			t.Errorf("workers=%d: summary without a base differs from the sequential one", workers)
		}
	}
}

func TestTestbedNames(t *testing.T) {
	names := TestbedNames()
	if len(names) != len(topology.Testbed()) {
		t.Fatalf("%d names, want %d", len(names), len(topology.Testbed()))
	}
	if names[0] != "henri" {
		t.Fatalf("first platform = %q", names[0])
	}
}
