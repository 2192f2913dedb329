package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"

	"memcontention/internal/kernels"
	"memcontention/internal/model"
	"memcontention/internal/topology"
)

// Request is one prediction query: the model's (platform, n, mcomp,
// mcomm, kernel) input. It arrives either as a JSON body or as query
// parameters; DecodeRequest normalises both.
type Request struct {
	Platform string `json:"platform"`
	N        int    `json:"n"`
	MComp    int    `json:"mcomp"`
	MComm    int    `json:"mcomm"`
	Kernel   string `json:"kernel,omitempty"`
}

// Placement converts the request's node pair to the model's type.
func (q Request) Placement() model.Placement {
	return model.Placement{Comp: topology.NodeID(q.MComp), Comm: topology.NodeID(q.MComm)}
}

// Request bounds. N is capped well above any Table I core count so typo'd
// giant sweeps are rejected instead of ground through the model loop;
// node ids are capped at the largest plausible NUMA fan-out.
const (
	MaxN    = 1 << 16
	MaxNode = 255
)

// kernelKinds maps the wire names onto the built-in kernels. The empty
// name is the calibration default.
var kernelKinds = map[string]kernels.Kind{
	"":          kernels.NTMemset,
	"nt-memset": kernels.NTMemset,
	"copy":      kernels.Copy,
	"triad":     kernels.Triad,
	"load":      kernels.Load,
}

// KernelNames lists the accepted kernel names in stable order.
func KernelNames() []string { return []string{"nt-memset", "copy", "triad", "load"} }

// KernelByName resolves a wire kernel name ("" means nt-memset).
func KernelByName(name string) (kernels.Kind, error) {
	kind, ok := kernelKinds[name]
	if !ok {
		return 0, fmt.Errorf("serve: unknown kernel %q (want one of %s)", name, strings.Join(KernelNames(), ", "))
	}
	return kind, nil
}

// DecodeRequest parses one prediction request from a JSON body (when
// non-empty) or from query parameters. It is the fuzzed hardening
// surface: every number is parsed through parseIntField, which rejects
// NaN, ±Inf, fractions, negatives and out-of-range magnitudes the same
// way units.ParseByteSize rejects malformed sizes, so no arithmetic
// downstream ever sees a poisoned value.
func DecodeRequest(body []byte, query url.Values) (Request, error) {
	if hasBody(body) {
		return validated(decodeBody(body))
	}
	var f fields
	for i, key := range fieldKeys {
		f[i] = query.Get(key)
	}
	return validated(decodeQuery(f))
}

// decodeHTTP is DecodeRequest for a request as the server receives it:
// the body, or else the raw query string, which it reads in place unless
// a parameter needs unescaping.
func decodeHTTP(body []byte, rawQuery string) (Request, error) {
	if hasBody(body) {
		return DecodeRequest(body, nil)
	}
	if f, ok := scanQuery(rawQuery); ok {
		return validated(decodeQuery(f))
	}
	query, _ := url.ParseQuery(rawQuery) // as URL.Query, which drops the error
	return DecodeRequest(nil, query)
}

func hasBody(body []byte) bool { return len(bytes.TrimSpace(body)) > 0 }

// validated finishes a decode with validateRequest.
func validated(q Request, err error) (Request, error) {
	if err != nil {
		return Request{}, err
	}
	return q, validateRequest(&q)
}

// fieldKeys are the request's wire names, indexed by the field constants.
var fieldKeys = [numFields]string{"platform", "kernel", "n", "mcomp", "mcomm"}

const (
	fieldPlatform = iota
	fieldKernel
	fieldN
	fieldMComp
	fieldMComm
	numFields
)

// fields holds a query's value for each field key: its first value, ""
// when absent, as url.Values.Get returns it.
type fields [numFields]string

// scanQuery reads raw in place when url.ParseQuery would neither unescape
// nor skip any of it ('%', '+', ';') and no field key repeats, so that
// each field's value is its only one, the one Get returns; other keys are
// ignored. It reports false for any other query, which ParseQuery decides.
func scanQuery(raw string) (fields, bool) {
	var f fields
	var seen [numFields]bool
	for raw != "" {
		var seg string
		seg, raw, _ = strings.Cut(raw, "&")
		if strings.ContainsAny(seg, "%+;") {
			return fields{}, false
		}
		key, value, _ := strings.Cut(seg, "=")
		for i, k := range fieldKeys {
			if key != k {
				continue
			}
			if seen[i] {
				return fields{}, false
			}
			f[i], seen[i] = value, true
		}
	}
	return f, true
}

// decodeBody decodes a JSON request body: directly when scanBody reads
// it, else through encoding/json, which decides every other body.
func decodeBody(body []byte) (Request, error) {
	v, ok := scanBody(body)
	if !ok {
		return decodeJSONBody(body)
	}
	q := Request{Platform: nameOf(v[fieldPlatform]), Kernel: nameOf(v[fieldKernel])}
	var err error
	if q.N, err = parseIntLiteral("n", v[fieldN], 1, MaxN); err != nil {
		return Request{}, err
	}
	if q.MComp, err = parseIntLiteral("mcomp", v[fieldMComp], 0, MaxNode); err != nil {
		return Request{}, err
	}
	if q.MComm, err = parseIntLiteral("mcomm", v[fieldMComm], 0, MaxNode); err != nil {
		return Request{}, err
	}
	return q, nil
}

// scanBody reads body when it is a request object in the form
// json.Marshal writes a Request in: each key one of fieldKeys, exactly,
// at most once; the platform and kernel as strings of printable ASCII
// without escapes, the rest as unsigned integer literals; JSON whitespace
// between tokens and nothing after the object. It returns each field's
// value, the string's bytes within its quotes or the integer's digits,
// nil when absent, and false for any other body.
func scanBody(body []byte) ([numFields][]byte, bool) {
	var v [numFields][]byte
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return v, false
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return v, skipSpace(body, i+1) == len(body)
	}
	for {
		key, end := stringAt(body, i)
		if end < 0 {
			return v, false
		}
		k := -1
		for j, name := range fieldKeys {
			if string(key) == name {
				k = j
			}
		}
		if k < 0 || v[k] != nil {
			return v, false
		}
		if i = skipSpace(body, end); i == len(body) || body[i] != ':' {
			return v, false
		}
		i = skipSpace(body, i+1)
		if k == fieldPlatform || k == fieldKernel {
			v[k], end = stringAt(body, i)
		} else if end = uintEnd(body, i); end >= 0 {
			v[k] = body[i:end]
		}
		if end < 0 {
			return v, false
		}
		switch i = skipSpace(body, end); {
		case i < len(body) && body[i] == ',':
			i = skipSpace(body, i+1)
		case i < len(body) && body[i] == '}':
			return v, skipSpace(body, i+1) == len(body)
		default:
			return v, false
		}
	}
}

// skipSpace returns the index of the first byte from i on that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// stringAt reads a JSON string of printable ASCII without escapes at
// b[i], returning its bytes within the quotes and the index after it, or
// an end of -1 when no such string starts there.
func stringAt(b []byte, i int) ([]byte, int) {
	if i == len(b) || b[i] != '"' {
		return nil, -1
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1
		case c < ' ' || c > '~' || c == '\\':
			return nil, -1
		}
	}
	return nil, -1
}

// uintEnd returns the index after the unsigned integer literal at b[i],
// digits without a leading zero as JSON writes them, or -1 when none
// starts there. scanBody reads no body whose number has a sign, fraction
// or exponent, and leaves it to encoding/json.
func uintEnd(b []byte, i int) int {
	j := i
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	if j == i || (j > i+1 && b[i] == '0') {
		return -1
	}
	return j
}

// names maps each built-in platform and kernel name onto itself, so that
// a known name read from a body costs a lookup, not a new string.
var names = func() map[string]string {
	m := make(map[string]string)
	for _, name := range append(topology.Names(), KernelNames()...) {
		m[name] = name
	}
	return m
}()

// nameOf returns b as a string, the shared one when b is a known name.
func nameOf(b []byte) string {
	if name, ok := names[string(b)]; ok {
		return name
	}
	return string(b)
}

// parseIntLiteral is parseIntField for the digits scanBody read, nil
// for an absent field, which reads as 0: the default node, or a missing
// n. Up to nine digits within [min, max] convert in place; any other
// literal goes to parseIntField as a string, for the same value or error.
func parseIntLiteral(name string, lit []byte, min, max int) (int, error) {
	if len(lit) <= 9 {
		v := 0
		for _, c := range lit {
			v = 10*v + int(c-'0')
		}
		if v >= min && v <= max {
			return v, nil
		}
	}
	return parseIntField(name, string(lit), min, max)
}

// wireRequest defers number parsing to json.Number so fractions and
// overflow are caught explicitly rather than silently truncated.
type wireRequest struct {
	Platform string      `json:"platform"`
	N        json.Number `json:"n"`
	MComp    json.Number `json:"mcomp"`
	MComm    json.Number `json:"mcomm"`
	Kernel   string      `json:"kernel"`
}

func decodeJSONBody(body []byte) (Request, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	dec.UseNumber()
	var w wireRequest
	if err := dec.Decode(&w); err != nil {
		return Request{}, fmt.Errorf("serve: decode request body: %w", err)
	}
	// Trailing content after the object is a malformed request, not a
	// stream.
	if dec.More() {
		return Request{}, fmt.Errorf("serve: trailing data after request object")
	}
	q := Request{Platform: w.Platform, Kernel: w.Kernel}
	var err error
	if q.N, err = parseIntField("n", w.N.String(), 1, MaxN); err != nil {
		return Request{}, err
	}
	if q.MComp, err = parseIntField("mcomp", orZero(w.MComp), 0, MaxNode); err != nil {
		return Request{}, err
	}
	if q.MComm, err = parseIntField("mcomm", orZero(w.MComm), 0, MaxNode); err != nil {
		return Request{}, err
	}
	return q, nil
}

// orZero defaults an absent json.Number to "0" (mcomp/mcomm default to
// node 0, matching the paper's baseline placement).
func orZero(n json.Number) string {
	if n.String() == "" {
		return "0"
	}
	return n.String()
}

func decodeQuery(f fields) (Request, error) {
	q := Request{Platform: f[fieldPlatform], Kernel: f[fieldKernel]}
	var err error
	if q.N, err = parseIntField("n", f[fieldN], 1, MaxN); err != nil {
		return Request{}, err
	}
	if q.MComp, err = parseIntField("mcomp", defaulted(f[fieldMComp], "0"), 0, MaxNode); err != nil {
		return Request{}, err
	}
	if q.MComm, err = parseIntField("mcomm", defaulted(f[fieldMComm], "0"), 0, MaxNode); err != nil {
		return Request{}, err
	}
	return q, nil
}

func defaulted(s, def string) string {
	if strings.TrimSpace(s) == "" {
		return def
	}
	return s
}

// parseIntField parses one integer field with the ParseByteSize-style
// hardening: reject empty, NaN, ±Inf, fractional, negative and
// out-of-range values with a field-named error.
func parseIntField(name, s string, min, max int) (int, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("serve: missing %s", name)
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: parse %s %q: %w", name, s, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("serve: %s %q is not finite", name, s)
	}
	if v != math.Trunc(v) {
		return 0, fmt.Errorf("serve: %s %q is not an integer", name, s)
	}
	if v < float64(min) || v > float64(max) {
		return 0, fmt.Errorf("serve: %s %q out of range [%d, %d]", name, s, min, max)
	}
	return int(v), nil
}

// validateRequest checks the platform and kernel names and normalises the
// kernel default. Node-range validation against the concrete platform
// happens at prediction time (the decoder does not know the topology).
func validateRequest(q *Request) error {
	if strings.TrimSpace(q.Platform) == "" {
		return fmt.Errorf("serve: missing platform")
	}
	if q.Platform != strings.TrimSpace(q.Platform) {
		return fmt.Errorf("serve: platform %q has surrounding whitespace", q.Platform)
	}
	if _, err := KernelByName(q.Kernel); err != nil {
		return err
	}
	if q.Kernel == "" {
		q.Kernel = "nt-memset"
	}
	return nil
}
