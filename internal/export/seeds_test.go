package export_test

import (
	"fmt"
	"reflect"
	"testing"

	"memcontention/internal/eval"
	"memcontention/internal/export"
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
