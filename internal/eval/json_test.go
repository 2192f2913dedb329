package eval

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"memcontention/internal/bench"
	"memcontention/internal/export"
	"memcontention/internal/model"
	"memcontention/internal/topology"
)

// stdlibJSON is what export.MarshalIndent must write for v: json.Marshal,
// then json.Indent with a two-space indent and prefix nested levels deep,
// then a newline.
func stdlibJSON(v any, nested int) ([]byte, error) {
	src, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := json.Indent(&out, src, strings.Repeat("  ", nested), "  "); err != nil {
		return nil, err
	}
	return append(out.Bytes(), '\n'), nil
}

// checkJSON fails t unless export.MarshalIndent writes v as encoding/json
// does, or fails with encoding/json's error. For a *PlatformResult it also
// checks AppendJSON at deeper nesting levels against json.Indent with the
// matching prefix, and that JSONSize bounds what AppendJSON appends.
func checkJSON(t testing.TB, name string, v any) {
	t.Helper()
	want, werr := stdlibJSON(v, 0)
	got, err := export.MarshalIndent(v)
	// WriteJSON appends into a bytes.Buffer's own storage, after what the
	// buffer already holds, and leaves it alone on an error.
	var buf bytes.Buffer
	buf.WriteString("x")
	bufErr := export.WriteJSON(&buf, v)
	switch {
	case werr != nil || err != nil:
		if werr == nil || err == nil || err.Error() != werr.Error() {
			t.Fatalf("%s: MarshalIndent error %v, json.Marshal error %v", name, err, werr)
		}
		if bufErr == nil || bufErr.Error() != err.Error() || buf.String() != "x" {
			t.Fatalf("%s: WriteJSON to a bytes.Buffer returned %v and left %q", name, bufErr, buf.String())
		}
		return
	case !bytes.Equal(got, want):
		t.Fatalf("%s: MarshalIndent:\n%s\njson.Marshal + json.Indent:\n%s", name, got, want)
	case bufErr != nil || !bytes.Equal(buf.Bytes()[1:], want):
		t.Fatalf("%s: WriteJSON to a bytes.Buffer (%v):\n%s\njson.Marshal + json.Indent:\n%s", name, bufErr, buf.Bytes()[1:], want)
	}
	r, ok := v.(*PlatformResult)
	if !ok {
		return
	}
	for _, depth := range []int{0, 1, 7, 20} {
		want, _ := stdlibJSON(v, depth)
		got, err := r.AppendJSON([]byte("x"), depth)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[1:], want[:len(want)-1]) {
			t.Fatalf("%s: AppendJSON at depth %d:\n%s\njson.Indent:\n%s", name, depth, got[1:], want)
		}
		if n, bound := len(got)-1, r.JSONSize(depth); n > bound {
			t.Fatalf("%s: AppendJSON at depth %d wrote %d bytes, JSONSize bounds it at %d", name, depth, n, bound)
		}
	}
}

// smallResult is a two-placement evaluation, one of them a sample, with
// two points and predictions each.
func smallResult() *PlatformResult {
	r := &PlatformResult{
		Platform: "small",
		Model: model.Model{
			Local:          model.Params{NParMax: 3, TParMax: 40.5, NSeqMax: 5, TSeqMax: 38.25, TPar2: 39, DeltaL: 0.75, DeltaR: -0.125, BCompSeq: 6.5, BCommSeq: 11.3, Alpha: 0.239},
			Remote:         model.Params{NParMax: 2, TParMax: 20.1, NSeqMax: 4, TSeqMax: 19.7, TPar2: 19.9, DeltaL: 1.5, DeltaR: 0.5, BCompSeq: 3.3, BCommSeq: 10.9, Alpha: 0.5},
			NodesPerSocket: 1,
		},
		Errors: ErrorSummary{CommSamples: 3.74, CommNonSamples: 1.38, CommAll: 2.56, CompSamples: 0.92, CompNonSamples: 0.54, CompAll: 0.73, Average: 1.645},
	}
	for i, pl := range []model.Placement{{Comp: 0, Comm: 0}, {Comp: 1, Comm: 0}} {
		r.Placements = append(r.Placements, &PlacementResult{
			Placement: pl,
			IsSample:  i == 0,
			Measured: &bench.Curve{Platform: "small", Placement: pl, Kernel: "nt-memset", Points: []bench.Point{
				{N: 1, CompAlone: 5.02, CommAlone: 10.88, CompPar: 5.004, CommPar: 10.91},
				{N: 2, CompAlone: 9.99, CommAlone: 10.9, CompPar: 9.8, CommPar: 10.1},
			}},
			Predicted: []model.Prediction{{Comp: 5, Comm: 10.9}, {Comp: 10, Comm: 10.5}},
			CommMAPE:  3.68,
			CompMAPE:  0.61,
		})
	}
	return r
}

// floatFields returns every float64 field reachable from v, settable.
func floatFields(v reflect.Value) []reflect.Value {
	switch v.Kind() {
	case reflect.Float64:
		return []reflect.Value{v}
	case reflect.Pointer:
		if !v.IsNil() {
			return floatFields(v.Elem())
		}
	case reflect.Slice:
		var out []reflect.Value
		for i := 0; i < v.Len(); i++ {
			out = append(out, floatFields(v.Index(i))...)
		}
		return out
	case reflect.Struct:
		var out []reflect.Value
		for i := 0; i < v.NumField(); i++ {
			out = append(out, floatFields(v.Field(i))...)
		}
		return out
	}
	return nil
}

// longestFloat has the longest JSON encoding of a float64, 25 bytes.
const longestFloat = -1.2345678901234567e-6

// TestAppendJSONMatchesStdlib: table2.json's appender writes
// encoding/json's bytes for the testbed evaluations at noise seeds 1–16,
// for every float field holding encoding/json's edge cases, for strings
// it must escape, and for nil and empty slices, pointers and elements;
// with NaN or ±Inf in any float field both paths fail alike.
func TestAppendJSONMatchesStdlib(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		results, err := EvaluateTestbed(seed)
		if err != nil {
			t.Fatal(err)
		}
		checkJSON(t, "testbed", results)
		checkJSON(t, "testbed[0]", results[0])
	}

	r := smallResult()
	fields := floatFields(reflect.ValueOf(r))
	if len(fields) != 2*8+7+2*(2+2*4+2*2) {
		t.Fatalf("found %d float fields in the small result", len(fields))
	}
	edges := []float64{
		math.Copysign(0, -1), 0, 1e-7, -1e-7, 9.99e-7, 1e-6, 1e21, -1e21, 1e20, 999999999999999900000,
		5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
		1e-100, 1.5e300, 0.1, 1.0 / 3, 123456789, 12345678912345678, 1e-10, 1.25e-6,
		longestFloat, -2.2250738585072014e-308,
	}
	for i, f := range fields {
		old := f.Float()
		for _, v := range edges {
			f.SetFloat(v)
			checkJSON(t, "edge value", r)
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			f.SetFloat(v)
			if _, err := export.MarshalIndent(r); err == nil {
				t.Fatalf("float field %d = %v: MarshalIndent succeeded", i, v)
			}
			checkJSON(t, "non-finite", []*PlatformResult{smallResult(), r})
		}
		f.SetFloat(old)
	}
	for _, f := range fields {
		f.SetFloat(longestFloat)
	}
	checkJSON(t, "longest floats", r)

	for _, s := range []string{"", "<a&b>", `say "hi"`, `back\slash`, "\x00\x01\n\t\x1f\x7f", "\xff\xfe", "\u2028\u2029", "ünï ∥ ×"} {
		r := smallResult()
		r.Platform, r.Placements[0].Measured.Platform, r.Placements[1].Measured.Kernel = s, s+"!", "k"+s
		checkJSON(t, "string "+s, r)
	}

	structural := map[string]func(r *PlatformResult){
		"nil placements":   func(r *PlatformResult) { r.Placements = nil },
		"empty placements": func(r *PlatformResult) { r.Placements = []*PlacementResult{} },
		"nil placement":    func(r *PlatformResult) { r.Placements[1] = nil },
		"nil measured":     func(r *PlatformResult) { r.Placements[0].Measured = nil },
		"nil points":       func(r *PlatformResult) { r.Placements[0].Measured.Points = nil },
		"empty points":     func(r *PlatformResult) { r.Placements[1].Measured.Points = []bench.Point{} },
		"nil predicted":    func(r *PlatformResult) { r.Placements[0].Predicted = nil },
		"empty predicted":  func(r *PlatformResult) { r.Placements[1].Predicted = []model.Prediction{} },
	}
	for name, mutate := range structural {
		r := smallResult()
		mutate(r)
		checkJSON(t, name, r)
		checkJSON(t, name+" in a slice", []*PlatformResult{r, nil})
	}
	checkJSON(t, "nil result", (*PlatformResult)(nil))
	checkJSON(t, "nil slice", []*PlatformResult(nil))
	checkJSON(t, "empty slice", []*PlatformResult{})
	checkJSON(t, "nil elements", []*PlatformResult{nil, smallResult(), nil})
	type named []*PlatformResult
	checkJSON(t, "named slice", named{smallResult()})
	checkJSON(t, "appender interfaces", []export.JSONAppender{smallResult(), nil})
}

// TestMarshalIndentResultsAllocs: table2.json allocates its output once;
// the second allocation is the slice header boxed into the any argument.
// Written to a bytes.Buffer, as the artifacts are, the output is appended
// straight into the buffer's storage, so a buffer with room allocates
// only the boxed header: when WriteJSON rendered into a slice of its own
// and the buffer copied it, that slice was one more allocation.
func TestMarshalIndentResultsAllocs(t *testing.T) {
	results := []*PlatformResult{smallResult(), smallResult()}
	if n := testing.AllocsPerRun(20, func() {
		if err := export.WriteJSON(io.Discard, results); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("WriteJSON of []*PlatformResult allocates %v times, want at most 2", n)
	}
	var buf bytes.Buffer
	if n := testing.AllocsPerRun(20, func() {
		buf.Reset()
		if err := export.WriteJSON(&buf, results); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("WriteJSON of []*PlatformResult to a bytes.Buffer with room allocates %v times, want at most 1", n)
	}
}

// resultSource builds result trees from fuzzer bytes: each read takes the
// next bytes, and an exhausted input reads zeros.
type resultSource struct{ data []byte }

func (s *resultSource) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *resultSource) float() float64 {
	var raw [8]byte
	for i := range raw {
		raw[i] = s.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

func (s *resultSource) int() int { return int(int8(s.byte())) }

func (s *resultSource) str() string {
	b := make([]byte, s.byte()%12)
	for i := range b {
		b[i] = s.byte()
	}
	return string(b)
}

// count reads a slice length below 4, or -1 for a nil slice.
func (s *resultSource) count() int { return int(s.byte()%5) - 1 }

func (s *resultSource) params() model.Params {
	return model.Params{NParMax: s.int(), TParMax: s.float(), NSeqMax: s.int(), TSeqMax: s.float(), TPar2: s.float(),
		DeltaL: s.float(), DeltaR: s.float(), BCompSeq: s.float(), BCommSeq: s.float(), Alpha: s.float()}
}

func (s *resultSource) result() *PlatformResult {
	if s.byte()%6 == 0 {
		return nil
	}
	r := &PlatformResult{Platform: s.str(), Model: model.Model{Local: s.params(), Remote: s.params(), NodesPerSocket: s.int()}}
	if n := s.count(); n >= 0 {
		r.Placements = make([]*PlacementResult, n)
		for i := range r.Placements {
			if s.byte()%6 == 0 {
				continue
			}
			pl := model.Placement{Comp: topology.NodeID(s.int()), Comm: topology.NodeID(s.int())}
			pr := &PlacementResult{Placement: pl, IsSample: s.byte()%2 == 0}
			if s.byte()%6 != 0 {
				pr.Measured = &bench.Curve{Platform: s.str(), Placement: pl, Kernel: s.str()}
				if n := s.count(); n >= 0 {
					pr.Measured.Points = make([]bench.Point, n)
					for k := range pr.Measured.Points {
						pr.Measured.Points[k] = bench.Point{N: s.int(), CompAlone: s.float(), CommAlone: s.float(), CompPar: s.float(), CommPar: s.float()}
					}
				}
			}
			if n := s.count(); n >= 0 {
				pr.Predicted = make([]model.Prediction, n)
				for k := range pr.Predicted {
					pr.Predicted[k] = model.Prediction{Comp: s.float(), Comm: s.float()}
				}
			}
			pr.CommMAPE, pr.CompMAPE = s.float(), s.float()
			r.Placements[i] = pr
		}
	}
	r.Errors = ErrorSummary{CommSamples: s.float(), CommNonSamples: s.float(), CommAll: s.float(),
		CompSamples: s.float(), CompNonSamples: s.float(), CompAll: s.float(), Average: s.float()}
	return r
}

// FuzzAppendJSON compares the appender with encoding/json on result trees
// read from fuzzer bytes: floats from raw bits (NaN and ±Inf included),
// strings from raw bytes, and nil or empty slices, pointers and elements
// anywhere.
func FuzzAppendJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x05henri\x0d\x00\x00\x00\x00\x00\x00\xf0\x3f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &resultSource{data: data}
		var results []*PlatformResult
		if n := s.count(); n >= 0 {
			results = make([]*PlatformResult, n)
			for i := range results {
				results[i] = s.result()
			}
		}
		checkJSON(t, "fuzzed results", results)
		if len(results) > 0 {
			checkJSON(t, "fuzzed result", results[0])
		}
	})
}
