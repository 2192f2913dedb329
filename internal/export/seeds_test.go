package export_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"memcontention/internal/bench"
	"memcontention/internal/eval"
	"memcontention/internal/export"
	"memcontention/internal/topology"
)

// TestAppendGBsOnSeedResults runs the fmt differential over every float
// the artifacts can hold: all float64 fields of the testbed evaluations
// at noise seeds 1–16, the seed classes the benchmark pins.
func TestAppendGBsOnSeedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("16 testbed evaluations")
	}
	n := 0
	for seed := uint64(1); seed <= 16; seed++ {
		results, err := eval.EvaluateTestbed(seed)
		if err != nil {
			t.Fatal(err)
		}
		eachFloat(reflect.ValueOf(results), func(v float64) {
			n++
			if got, want := export.GBs(v), fmt.Sprintf("%.2f", v); got != want {
				t.Fatalf("seed %d: GBs(%v) = %q, fmt %%.2f = %q", seed, v, got, want)
			}
		})
	}
	if n < 16*1000 {
		t.Fatalf("walked only %d floats over 16 seeds", n)
	}
}

// TestArtifactTablesMatchReference renders every table of the artifacts
// at noise seeds 1–16 with AppendText and the reference renderer: Tables
// I and II, and each platform report's parameter, error, ablation and
// per-placement tables.
func TestArtifactTablesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("16 testbed evaluations and their ablations")
	}
	check := func(seed uint64, tab *export.Table) {
		t.Helper()
		var want bytes.Buffer
		if err := export.WriteTextRef(tab, &want); err != nil {
			t.Fatal(err)
		}
		got, err := tab.AppendText(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("seed %d, table %q:\n%s\nreference:\n%s", seed, tab.Title, got, want.Bytes())
		}
	}
	check(0, eval.Table1(topology.Testbed()))
	for seed := uint64(1); seed <= 16; seed++ {
		results, err := eval.EvaluateTestbed(seed)
		if err != nil {
			t.Fatal(err)
		}
		check(seed, eval.Table2(results))
		for _, r := range results {
			plat, err := topology.ByName(r.Platform)
			if err != nil {
				t.Fatal(err)
			}
			runner, err := bench.NewRunner(bench.Config{Platform: plat, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			rows, err := eval.Ablation(runner)
			if err != nil {
				t.Fatal(err)
			}
			check(seed, export.ParamsTable("Calibrated model (§III-A parameters)", r.Model))
			check(seed, eval.ErrorTable(r.Errors))
			check(seed, eval.AblationTable(r.Platform, rows))
			check(seed, eval.PlacementTable(r.Placements))
		}
	}
}

// eachFloat calls fn on every float64 reachable from v through pointers,
// slices, arrays, maps and exported struct fields.
func eachFloat(v reflect.Value, fn func(float64)) {
	switch v.Kind() {
	case reflect.Float64:
		fn(v.Float())
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			eachFloat(v.Elem(), fn)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			eachFloat(v.Index(i), fn)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			eachFloat(it.Value(), fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				eachFloat(v.Field(i), fn)
			}
		}
	}
}
