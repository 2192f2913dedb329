package eval

import (
	"strconv"

	"memcontention/internal/bench"
	"memcontention/internal/export"
	"memcontention/internal/model"
)

// This file makes *PlatformResult an export.JSONAppender: table2.json
// (export.MarshalIndent of a []*PlatformResult) is appended field by field
// into one buffer, with no reflection, in the bytes json.Marshal and the
// indent pass write for the tree. The fields follow the struct
// declarations and their json tags: PlatformResult, model.Model,
// model.Params, PlacementResult, model.Placement, bench.Curve, bench.Point,
// model.Prediction and ErrorSummary. A field added to any of them must be
// added here too; TestAppendJSONMatchesStdlib fails until it is.

// AppendJSON implements export.JSONAppender.
func (r *PlatformResult) AppendJSON(dst []byte, depth int) ([]byte, error) {
	j := jsonOut{b: dst}
	j.result(depth, r)
	return j.b, j.err
}

// JSONSize implements export.JSONAppender: a bound from the tree's
// placement, point and prediction counts and its strings.
func (r *PlatformResult) JSONSize(d int) int {
	if r == nil {
		return len("null")
	}
	n := jsonObject(d, 4, len("placements")) + export.JSONStringSize(r.Platform) +
		jsonObject(d+1, 3, len("nodes_per_socket")) + 2*jsonObject(d+2, 10, len("b_comp_seq")) +
		jsonArray(d+1, len(r.Placements)) +
		jsonObject(d+1, 7, len("comm_non_samples"))
	for _, pr := range r.Placements {
		if pr == nil {
			n += len("null")
			continue
		}
		n += jsonObject(d+2, 6, len("placement")) + jsonObject(d+3, 2, len("comm")) +
			jsonArray(d+3, len(pr.Predicted)) + len(pr.Predicted)*jsonObject(d+4, 2, len("comm"))
		if c := pr.Measured; c != nil {
			n += jsonObject(d+3, 4, len("placement")) + export.JSONStringSize(c.Platform) + export.JSONStringSize(c.Kernel) +
				jsonObject(d+4, 2, len("comm")) +
				jsonArray(d+4, len(c.Points)) + len(c.Points)*jsonObject(d+5, 5, len("comp_alone"))
		}
	}
	return n
}

// jsonScalar bounds a number's JSON: the longest float encoding/json
// writes has 25 bytes, 17 digits in 'f' form just above 1e-6, such as
// -0.0000012345678901234567.
const jsonScalar = 25

// jsonObject bounds a non-empty object at depth with fields scalar
// fields, keyed by up to key bytes: per field a line (newline, indent,
// quoted key, ": ", value, comma), then the braces and the closing line.
// A field holding a container or a string is counted as a scalar here,
// and its content on its own.
func jsonObject(depth, fields, key int) int {
	return fields*(1+2*(depth+1)+key+4+jsonScalar+1) + 1 + 2*depth + 2
}

// jsonArray bounds the frame of an array at depth of n elements: per
// element a newline, its indent and a comma, then the brackets and the
// closing line (or null).
func jsonArray(depth, n int) int {
	return n*(1+2*(depth+1)+1) + 1 + 2*depth + 2 + len("null")
}

// jsonOut appends one indented JSON document and keeps the first error,
// a NaN or an infinity; the caller returns it with the bytes.
type jsonOut struct {
	b   []byte
	err error
}

// next starts a field or element at depth: a comma after the previous
// one, unless the container was just opened, then the line's newline and
// indent.
func (j *jsonOut) next(depth int) { j.b = nextLine(j.b, depth) }

func nextLine(b []byte, depth int) []byte {
	if c := b[len(b)-1]; c != '{' && c != '[' {
		b = append(b, ',')
	}
	return export.AppendJSONNewline(b, depth)
}

// key starts the field keyed k at depth, k being the quoted name and
// ": ", so that its value follows.
func (j *jsonOut) key(depth int, k string) { j.b = append(nextLine(j.b, depth), k...) }

// close ends the object or array whose fields or elements sit at
// depth+1.
func (j *jsonOut) close(depth int, c byte) {
	j.b = append(export.AppendJSONNewline(j.b, depth), c)
}

// The field writers below store j.b once each: a store of a pointer
// outside the stack costs a write barrier while the collector runs.

func (j *jsonOut) float(depth int, k string, v float64) {
	b, err := export.AppendJSONFloat(append(nextLine(j.b, depth), k...), v)
	j.b = b
	if err != nil && j.err == nil {
		j.err = err
	}
}

func (j *jsonOut) int(depth int, k string, v int) {
	j.b = strconv.AppendInt(append(nextLine(j.b, depth), k...), int64(v), 10)
}

func (j *jsonOut) str(depth int, k, s string) {
	j.b = export.AppendJSONString(append(nextLine(j.b, depth), k...), s)
}

func (j *jsonOut) bool(depth int, k string, v bool) {
	j.b = strconv.AppendBool(append(nextLine(j.b, depth), k...), v)
}

// null writes null for a nil pointer or slice and reports whether it
// did.
func (j *jsonOut) null(isNil bool) bool {
	if isNil {
		j.b = append(j.b, "null"...)
	}
	return isNil
}

// array writes the array of n elements at depth, each by elem at depth+1
// after its line is started; an empty array stays [].
func (j *jsonOut) array(depth, n int, elem func(i int)) {
	if n == 0 {
		j.b = append(j.b, "[]"...)
		return
	}
	j.b = append(j.b, '[')
	for i := range n {
		j.next(depth + 1)
		elem(i)
	}
	j.close(depth, ']')
}

func (j *jsonOut) result(d int, r *PlatformResult) {
	if j.null(r == nil) {
		return
	}
	j.b = append(j.b, '{')
	j.str(d+1, `"platform": `, r.Platform)
	j.key(d+1, `"model": `)
	j.model(d+1, r.Model)
	j.key(d+1, `"placements": `)
	if !j.null(r.Placements == nil) {
		j.array(d+1, len(r.Placements), func(i int) { j.placementResult(d+2, r.Placements[i]) })
	}
	j.key(d+1, `"errors": `)
	j.errors(d+1, r.Errors)
	j.close(d, '}')
}

func (j *jsonOut) model(d int, m model.Model) {
	j.b = append(j.b, '{')
	j.key(d+1, `"local": `)
	j.params(d+1, m.Local)
	j.key(d+1, `"remote": `)
	j.params(d+1, m.Remote)
	j.int(d+1, `"nodes_per_socket": `, m.NodesPerSocket)
	j.close(d, '}')
}

func (j *jsonOut) params(d int, p model.Params) {
	j.b = append(j.b, '{')
	j.int(d+1, `"n_par_max": `, p.NParMax)
	j.float(d+1, `"t_par_max": `, p.TParMax)
	j.int(d+1, `"n_seq_max": `, p.NSeqMax)
	j.float(d+1, `"t_seq_max": `, p.TSeqMax)
	j.float(d+1, `"t_par2": `, p.TPar2)
	j.float(d+1, `"delta_l": `, p.DeltaL)
	j.float(d+1, `"delta_r": `, p.DeltaR)
	j.float(d+1, `"b_comp_seq": `, p.BCompSeq)
	j.float(d+1, `"b_comm_seq": `, p.BCommSeq)
	j.float(d+1, `"alpha": `, p.Alpha)
	j.close(d, '}')
}

func (j *jsonOut) placementResult(d int, pr *PlacementResult) {
	if j.null(pr == nil) {
		return
	}
	j.b = append(j.b, '{')
	j.key(d+1, `"placement": `)
	j.placement(d+1, pr.Placement)
	j.bool(d+1, `"is_sample": `, pr.IsSample)
	j.key(d+1, `"measured": `)
	j.curve(d+1, pr.Measured)
	j.key(d+1, `"predicted": `)
	if !j.null(pr.Predicted == nil) {
		j.array(d+1, len(pr.Predicted), func(i int) {
			p := pr.Predicted[i]
			j.b = append(j.b, '{')
			j.float(d+3, `"comp": `, p.Comp)
			j.float(d+3, `"comm": `, p.Comm)
			j.close(d+2, '}')
		})
	}
	j.float(d+1, `"comm_mape": `, pr.CommMAPE)
	j.float(d+1, `"comp_mape": `, pr.CompMAPE)
	j.close(d, '}')
}

func (j *jsonOut) placement(d int, pl model.Placement) {
	j.b = append(j.b, '{')
	j.int(d+1, `"comp": `, int(pl.Comp))
	j.int(d+1, `"comm": `, int(pl.Comm))
	j.close(d, '}')
}

func (j *jsonOut) curve(d int, c *bench.Curve) {
	if j.null(c == nil) {
		return
	}
	j.b = append(j.b, '{')
	j.str(d+1, `"platform": `, c.Platform)
	j.key(d+1, `"placement": `)
	j.placement(d+1, c.Placement)
	j.str(d+1, `"kernel": `, c.Kernel)
	j.key(d+1, `"points": `)
	if !j.null(c.Points == nil) {
		j.array(d+1, len(c.Points), func(i int) {
			p := &c.Points[i]
			j.b = append(j.b, '{')
			j.int(d+3, `"n": `, p.N)
			j.float(d+3, `"comp_alone": `, p.CompAlone)
			j.float(d+3, `"comm_alone": `, p.CommAlone)
			j.float(d+3, `"comp_par": `, p.CompPar)
			j.float(d+3, `"comm_par": `, p.CommPar)
			j.close(d+2, '}')
		})
	}
	j.close(d, '}')
}

func (j *jsonOut) errors(d int, e ErrorSummary) {
	j.b = append(j.b, '{')
	j.float(d+1, `"comm_samples": `, e.CommSamples)
	j.float(d+1, `"comm_non_samples": `, e.CommNonSamples)
	j.float(d+1, `"comm_all": `, e.CommAll)
	j.float(d+1, `"comp_samples": `, e.CompSamples)
	j.float(d+1, `"comp_non_samples": `, e.CompNonSamples)
	j.float(d+1, `"comp_all": `, e.CompAll)
	j.float(d+1, `"average": `, e.Average)
	j.close(d, '}')
}
