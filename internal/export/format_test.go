package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"memcontention/internal/model"
)

// checkGBs fails t unless AppendGBs and GBs agree with fmt's %.2f on v.
func checkGBs(t *testing.T, v float64) {
	t.Helper()
	want := fmt.Sprintf("%.2f", v)
	if got := string(AppendGBs([]byte("x"), v)); got != "x"+want {
		t.Fatalf("AppendGBs(%s) = %q, fmt %%.2f = %q", strconv.FormatFloat(v, 'g', -1, 64), got[1:], want)
	}
	if got := GBs(v); got != want {
		t.Fatalf("GBs(%s) = %q, fmt %%.2f = %q", strconv.FormatFloat(v, 'g', -1, 64), got, want)
	}
}

// TestAppendGBsMatchesFmt is the differential test of the fixed-point
// formatter: signed zeros, exact and near ties, carries into a new
// digit, subnormals, the 2^50 fallback boundary, NaN and the infinities,
// each with its neighbouring floats, then every hundredth tie below 300
// and random values over the whole float range.
func TestAppendGBsMatchesFmt(t *testing.T) {
	edges := []float64{
		0, 0.125, 0.375, 2.675, 1.005, 10.125, 0.005, 0.015, 0.5, 1,
		9.995, 99.995, 999.995, 0.995, 0.001, 0.0049999, 12.345, 66.66,
		math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023, 0x1p-60, 0x1p-7,
		0x1p49, 0x1p50, 0x1p51, 0x1p52, 0x1p53, 0x1p60, 1e15, 1e20,
		math.MaxFloat64, math.Inf(1), math.NaN(),
	}
	for _, v := range edges {
		for _, u := range []float64{v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1))} {
			checkGBs(t, u)
			checkGBs(t, -u)
		}
	}
	for k := 0; k < 30000; k++ {
		v := (float64(k) + 0.5) / 100
		checkGBs(t, v)
		checkGBs(t, math.Nextafter(v, 0))
		checkGBs(t, math.Nextafter(v, math.Inf(1)))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		checkGBs(t, math.Float64frombits(rng.Uint64()))
		checkGBs(t, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(24)-8)))
	}
}

// indentRef is the reference MarshalIndent must reproduce: json.Indent
// over json.Marshal's output, ending in a newline.
func indentRef(t *testing.T, v any) []byte {
	t.Helper()
	src, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Indent(&want, src, "", "  "); err != nil {
		t.Fatal(err)
	}
	return append(want.Bytes(), '\n')
}

// TestMarshalIndentMatchesStdlib: empty containers stay compact, strings
// holding structural characters and escapes pass through untouched, a
// MarshalJSON method decides its own bytes, nesting may run deeper than 16
// levels, and the result equals both json.Indent and what json.Encoder
// with SetIndent writes.
func TestMarshalIndentMatchesStdlib(t *testing.T) {
	type inner struct {
		Name  string             `json:"name"`
		Tags  []string           `json:"tags"`
		Attrs map[string]any     `json:"attrs"`
		Skip  *int               `json:"skip,omitempty"`
		Raw   json.RawMessage    `json:"raw"`
		Deep  [][]map[string]int `json:"deep"`
	}
	values := []any{
		nil, 1.5, "plain", `q"uote\ {[,:]} <a&b>` + " \xff",
		[]int{}, map[string]int{}, []any{[]any{}, map[string]any{}, []any{[]any{1}}},
		inner{Name: `{"not":"json"}`, Tags: []string{}, Attrs: map[string]any{"e": map[string]any{}, `k:,"`: []string{"\\", `\"`}},
			Raw: json.RawMessage(` { "a" : [ 1 , 2 ] , "b" : { } } `), Deep: [][]map[string]int{{{}, {"x": 1}}, {}}},
		model.Model{NodesPerSocket: 2, Local: model.Params{NParMax: 3, TParMax: 1.25}},
	}
	deep := any(map[string]any{"leaf": []int{1, 2}})
	for i := 0; i < 20; i++ { // past the 16 levels newline slices from its constant
		deep = []any{deep, i}
	}
	values = append(values, deep)
	for _, v := range values {
		want := indentRef(t, v)
		got, err := MarshalIndent(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("MarshalIndent(%#v):\n%s\njson.Indent:\n%s", v, got, want)
		}
		var enc bytes.Buffer
		e := json.NewEncoder(&enc)
		e.SetIndent("", "  ")
		if err := e.Encode(v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, enc.Bytes()) {
			t.Errorf("MarshalIndent(%#v):\n%s\njson.Encoder:\n%s", v, got, enc.Bytes())
		}
	}
	if _, err := MarshalIndent(math.NaN()); err == nil {
		t.Error("MarshalIndent(NaN) must fail as json.Marshal does")
	}
}

// FuzzIndentJSON checks the indent pass against json.Indent on fuzzed
// strings (quotes, backslashes, U+2028, <>&, invalid UTF-8) nested in
// arrays and objects, empty ones included, and on any valid JSON document
// the fuzzer finds, which json.Marshal compacts as a json.RawMessage.
func FuzzIndentJSON(f *testing.F) {
	f.Add("key", "value", []byte(`{"a":[1,{}],"b":[]}`))
	f.Add(`"\`, " <>&\xff", []byte(`[[],{},"\"\\",-1.5e3,true,null]`))
	f.Add("", "{[,:]}\u2028\u2029", []byte(` "x" `))
	f.Fuzz(func(t *testing.T, key, val string, raw []byte) {
		values := []any{
			key,
			[]any{val, []any{}, map[string]any{}, []any{key, map[string]any{key: []any{val, []any{}}}}},
			map[string]any{key: val, val: map[string]any{}, "": []any{map[string]any{key: map[string]any{}}}},
		}
		if json.Valid(raw) {
			values = append(values, json.RawMessage(raw), []any{json.RawMessage(raw), map[string]any{key: json.RawMessage(raw)}})
		}
		for _, v := range values {
			want := indentRef(t, v)
			got, err := MarshalIndent(v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("MarshalIndent:\n%q\njson.Indent:\n%q", got, want)
			}
		}
	})
}
