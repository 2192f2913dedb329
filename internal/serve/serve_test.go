package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"memcontention/internal/bench"
	"memcontention/internal/calib"
	"memcontention/internal/kernels"
	"memcontention/internal/model"
	"memcontention/internal/obs"
	"memcontention/internal/obs/slogx"
	"memcontention/internal/topology"
)

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func doJSON(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("%s %s: non-JSON body %q: %v", method, path, rec.Body.String(), err)
	}
	return rec, m
}

// expectedPrediction recomputes what the server must answer by running
// the same calibration pipeline directly.
func expectedPrediction(t *testing.T, platform string, seed uint64, kind kernels.Kind, n, mcomp, mcomm int) model.Prediction {
	t.Helper()
	plat, err := topology.ByName(platform)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := bench.NewRunner(bench.Config{Platform: plat, Kernel: kernels.New(kind), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	m, err := calib.CalibrateRunner(runner)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(n, model.Placement{Comp: topology.NodeID(mcomp), Comm: topology.NodeID(mcomm)})
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

func TestPredictMatchesModel(t *testing.T) {
	s := newTestServer(t, Options{Platforms: []string{"henri"}, Seed: 3})
	want := expectedPrediction(t, "henri", 3, kernels.NTMemset, 12, 0, 1)

	rec, body := doJSON(t, s.Handler(), http.MethodGet, "/predict?platform=henri&n=12&mcomp=0&mcomm=1", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET status = %d, body %v", rec.Code, body)
	}
	if got := body["comp_gbps"].(float64); got != want.Comp {
		t.Errorf("comp_gbps = %g, want %g", got, want.Comp)
	}
	if got := body["comm_gbps"].(float64); got != want.Comm {
		t.Errorf("comm_gbps = %g, want %g", got, want.Comm)
	}
	if body["cached"].(bool) {
		t.Error("first request reported cached")
	}

	// POST body form answers identically — and from the cache this time.
	rec, post := doJSON(t, s.Handler(), http.MethodPost, "/predict",
		`{"platform":"henri","n":12,"mcomp":0,"mcomm":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST status = %d, body %v", rec.Code, post)
	}
	if post["comp_gbps"] != body["comp_gbps"] || post["comm_gbps"] != body["comm_gbps"] {
		t.Error("POST and GET answers diverge")
	}
	if !post["cached"].(bool) {
		t.Error("second request missed the cache")
	}
	if post["model_fingerprint"] != body["model_fingerprint"] {
		t.Error("fingerprint changed between requests")
	}
	if post["request_id"] == body["request_id"] {
		t.Error("request ids must be distinct")
	}
}

func TestPredictionsAreReproduciblePerSeed(t *testing.T) {
	const path = "/predict?platform=diablo&n=8&mcomp=0&mcomm=1&kernel=triad"
	answers := make([]map[string]any, 2)
	for i := range answers {
		s := newTestServer(t, Options{Seed: 7})
		rec, body := doJSON(t, s.Handler(), http.MethodGet, path, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("server %d: status %d body %v", i, rec.Code, body)
		}
		answers[i] = body
	}
	for _, key := range []string{"comp_gbps", "comm_gbps", "model_fingerprint"} {
		if answers[0][key] != answers[1][key] {
			t.Errorf("%s not reproducible across identical servers: %v vs %v",
				key, answers[0][key], answers[1][key])
		}
	}
}

func TestPredictErrors(t *testing.T) {
	s := newTestServer(t, Options{Platforms: []string{"henri"}})
	cases := []struct {
		name, method, path, body string
		wantCode                 int
	}{
		{"unknown platform", http.MethodGet, "/predict?platform=nope&n=1", "", 404},
		{"unserved platform", http.MethodGet, "/predict?platform=dahu&n=1", "", 404},
		{"missing n", http.MethodGet, "/predict?platform=henri", "", 400},
		{"zero n", http.MethodGet, "/predict?platform=henri&n=0", "", 400},
		{"NaN n", http.MethodGet, "/predict?platform=henri&n=NaN", "", 400},
		{"negative mcomp", http.MethodGet, "/predict?platform=henri&n=1&mcomp=-1", "", 400},
		{"placement out of range", http.MethodGet, "/predict?platform=henri&n=1&mcomp=9", "", 400},
		{"unknown kernel", http.MethodGet, "/predict?platform=henri&n=1&kernel=fma", "", 400},
		{"bad json", http.MethodPost, "/predict", `{"platform":`, 400},
		{"unknown field", http.MethodPost, "/predict", `{"platform":"henri","n":1,"x":2}`, 400},
		{"method", http.MethodDelete, "/predict?platform=henri&n=1", "", 405},
		{"oversized body", http.MethodPost, "/predict", oversizedBody, 413},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, body := doJSON(t, s.Handler(), tc.method, tc.path, tc.body)
			if rec.Code != tc.wantCode {
				t.Fatalf("status = %d, want %d (body %v)", rec.Code, tc.wantCode, body)
			}
			if body["error"] == "" {
				t.Error("error body missing")
			}
		})
	}
}

func TestCalibrationCoalescing(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Options{Platforms: []string{"henri"}, Registry: reg})

	const callers = 8
	var (
		start   = make(chan struct{})
		wg      sync.WaitGroup
		mu      sync.Mutex
		entries = make(map[*entry]int)
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			e, _, err := s.cache.get("henri", "nt-memset")
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			entries[e]++
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	if len(entries) != 1 {
		t.Fatalf("coalesced callers saw %d distinct entries, want 1", len(entries))
	}
	// One calibration = exactly two parameter extractions (local+remote
	// samples), no matter how many callers raced.
	fits, ok := scrapeValue(t, reg, "memcontention_calib_fits_total")
	if !ok || fits != 2 {
		t.Errorf("calib fits = %v (ok=%v), want exactly 2 — calibration ran more than once", fits, ok)
	}
}

// scrapeValue reads one unlabelled series off the live Prometheus
// endpoint — asserting through the plane under test, not the registry
// internals.
func scrapeValue(t *testing.T, reg *obs.Registry, series string) (float64, bool) {
	t.Helper()
	live := &obs.Live{Registry: reg}
	rec := httptest.NewRecorder()
	live.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	stats, err := obs.ParseExposition(rec.Body.String())
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	return stats.Value(series)
}

func TestBackpressureShedsWith429(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Options{Platforms: []string{"henri"}, MaxInFlight: 1, RetryAfter: 2 * time.Second, Registry: reg})
	// Saturate the semaphore deterministically.
	s.sem <- struct{}{}
	rec, body := doJSON(t, s.Handler(), http.MethodGet, "/predict?platform=henri&n=1", "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %v)", rec.Code, body)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	<-s.sem
	if shed, ok := scrapeValue(t, reg, "memcontention_serve_shed_total"); !ok || shed != 1 {
		t.Errorf("shed counter = %v, want 1", shed)
	}
	// Capacity restored: the same request now succeeds.
	rec, _ = doJSON(t, s.Handler(), http.MethodGet, "/predict?platform=henri&n=1", "")
	if rec.Code != http.StatusOK {
		t.Errorf("post-shed status = %d, want 200", rec.Code)
	}
}

func TestLivePlaneMountedAndQuantilesPublished(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Options{Platforms: []string{"henri"}, Registry: reg})
	if err := s.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	if rec := httptest.NewRecorder(); true {
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/readyz after Warm = %d", rec.Code)
		}
	}
	for i := 0; i < 20; i++ {
		rec, _ := doJSON(t, h, http.MethodGet, "/predict?platform=henri&n=4&mcomm=1", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("warm request %d: status %d", i, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	stats, err := obs.ParseExposition(rec.Body.String())
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if v, ok := stats.Value(`memcontention_serve_requests_total{code="200"}`); !ok || v != 20 {
		t.Errorf("requests counter = %v, want 20", v)
	}
	p99, ok := stats.Value(`memcontention_serve_latency_quantile_seconds{quantile="0.99"}`)
	if !ok || p99 <= 0 {
		t.Errorf("p99 gauge = %v (ok=%v), want > 0", p99, ok)
	}
	if qps, ok := stats.Value("memcontention_serve_window_qps"); !ok || qps <= 0 {
		t.Errorf("window qps = %v, want > 0", qps)
	}
	if hits, ok := stats.Value("memcontention_serve_cache_hits_total"); !ok || hits != 20 {
		t.Errorf("cache hits = %v, want 20 (Warm precalibrated)", hits)
	}
	// /metrics.json and /debug/pprof ride on the same mux.
	recJSON := httptest.NewRecorder()
	h.ServeHTTP(recJSON, httptest.NewRequest(http.MethodGet, "/metrics.json", nil))
	if recJSON.Code != http.StatusOK {
		t.Errorf("/metrics.json = %d", recJSON.Code)
	}
	recP := httptest.NewRecorder()
	h.ServeHTTP(recP, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if recP.Code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", recP.Code)
	}
}

func TestGracefulDrain(t *testing.T) {
	s := newTestServer(t, Options{Platforms: []string{"henri"}, DrainTimeout: 2 * time.Second})
	if err := s.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	base := "http://" + ln.Addr().String()
	resp, err := http.Get(base + "/predict?platform=henri&n=2")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live request status = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil on graceful drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not drain within 5s")
	}
	if s.probe.Ready() {
		t.Error("probe still ready after drain")
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after drain")
	}
}

func TestNewRejectsUnknownPlatform(t *testing.T) {
	if _, err := New(Options{Platforms: []string{"henri", "atlantis"}}); err == nil {
		t.Fatal("New accepted an unknown platform")
	}
}

func TestPlatformsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{Platforms: []string{"pyxis", "henri"}})
	rec, body := doJSON(t, s.Handler(), http.MethodGet, "/platforms", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/platforms = %d", rec.Code)
	}
	got := fmt.Sprintf("%v", body["platforms"])
	if got != "[henri pyxis]" {
		t.Errorf("platforms = %s, want sorted [henri pyxis]", got)
	}
}

// oversizedBody is a well-formed request one byte longer than maxBody.
var oversizedBody = `{"platform":"henri","n":1}` + strings.Repeat(" ", maxBody-len(`{"platform":"henri","n":1}`)+1)

// cachedPredicts are a GET and a POST for a prediction Warm caches.
var cachedPredicts = []struct{ name, method, target, body string }{
	{"get", http.MethodGet, "/predict?platform=henri&n=12&mcomp=0&mcomm=1", ""},
	{"post", http.MethodPost, "/predict", `{"platform":"henri","n":12,"mcomp":0,"mcomm":1}`},
}

func warmServer(tb testing.TB, opts Options) *Server {
	tb.Helper()
	s, err := New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Warm(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return s
}

// apiError is the uniform JSON error body, as json.Marshal writes it.
type apiError struct {
	Error string `json:"error"`
}

// TestPredictWireFormat checks that every /predict reply body is what
// json.NewEncoder(w).Encode writes for it: json.Marshal's bytes and a
// newline.
func TestPredictWireFormat(t *testing.T) {
	s := warmServer(t, Options{Platforms: []string{"henri"}, MaxInFlight: 1})
	s.runID = "0123456789abcdef"
	e, _, err := s.cache.get("henri", "nt-memset")
	if err != nil {
		t.Fatal(err)
	}
	pred, err := e.model.Predict(12, model.Placement{Comp: 0, Comm: 1})
	if err != nil {
		t.Fatal(err)
	}
	ok := func(seq string) Response {
		return Response{Platform: "henri", N: 12, MComp: 0, MComm: 1, Kernel: "nt-memset",
			CompGBps: pred.Comp, CommGBps: pred.Comm, Model: e.fingerprint, Cached: true,
			Request: "0123456789abcdef-" + seq}
	}
	cases := []struct {
		name, method, target, body string
		saturated                  bool
		code                       int
		want                       any
	}{
		{"get", http.MethodGet, cachedPredicts[0].target, "", false, 200, ok("000001")},
		{"post", http.MethodPost, "/predict", cachedPredicts[1].body, false, 200, ok("000002")},
		{"400 quoted", http.MethodGet, "/predict?platform=henri&n=1&kernel=%3C%26%22%FF", "", false, 400,
			apiError{`serve: unknown kernel "<&\"\xff" (want one of nt-memset, copy, triad, load)`}},
		{"404 quoted", http.MethodGet, "/predict?platform=%3Cx%26y%22&n=1", "", false, 404,
			apiError{`serve: platform "<x&y\"" is not served by this instance`}},
		{"405", http.MethodPut, "/predict", "", false, 405,
			apiError{"use GET with query parameters or POST with a JSON body"}},
		{"413", http.MethodPost, "/predict", oversizedBody, false, 413,
			apiError{"serve: request body larger than 65536 bytes"}},
		{"429", http.MethodGet, cachedPredicts[0].target, "", true, 429,
			apiError{"server saturated; retry after the indicated backoff"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			if tc.saturated {
				s.sem <- struct{}{}
				defer func() { <-s.sem }()
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, body))
			want, err := json.Marshal(tc.want)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Code != tc.code || rec.Body.String() != string(want)+"\n" {
				t.Errorf("got %d %q, want %d %q", rec.Code, rec.Body, tc.code, string(want)+"\n")
			}
			if got := rec.Header().Get("Content-Type"); got != "application/json" {
				t.Errorf("Content-Type = %q", got)
			}
		})
	}
}

// TestAppendMatchesMarshal checks the reply encoders against
// json.Marshal on the strings and floats it escapes or formats in its
// own way: HTML characters, quotes, control characters, invalid UTF-8,
// U+2028, and floats on both sides of the 'e' notation thresholds.
func TestAppendMatchesMarshal(t *testing.T) {
	texts := []string{"", "plain", `<script>&"quoted"\`, "bad \xff utf-8", "line\u2028sep", "tab\tand\nnewline"}
	for _, text := range texts {
		want, _ := json.Marshal(apiError{Error: text})
		if got := appendError(nil, text); string(got) != string(want)+"\n" {
			t.Errorf("appendError(%q) = %q, want %q", text, got, want)
		}
	}
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 9.99e-7, 1e-6, 12.5, 1e20, 1e21, -3.25e22}
	for i, text := range texts {
		id := requestID{run: "0123456789abcdef", seq: []uint64{0, 1, 42, 999999, 1000000, 1234567}[i]}
		resp := Response{Platform: text, N: 65536, MComp: i, MComm: 255, Kernel: text,
			CompGBps: floats[i], CommGBps: floats[len(floats)-1-i], Model: text, Cached: i%2 == 0}
		got, err := appendResponse(nil, &resp, id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Request = fmt.Sprintf("%s-%06d", id.run, id.seq)
		want, _ := json.Marshal(resp)
		if string(got) != string(want)+"\n" {
			t.Errorf("appendResponse = %q\nwant             %q", got, want)
		}
	}
	if _, err := appendResponse(nil, &Response{CompGBps: math.NaN()}, requestID{}); err == nil {
		t.Error("appendResponse encoded NaN")
	}
}

// TestHandlePredictAllocs pins what a cached prediction allocates inside
// the handler: the request is reused and the ResponseWriter allocates
// nothing itself, so what remains is the handler's own.
func TestHandlePredictAllocs(t *testing.T) {
	s := warmServer(t, Options{Platforms: []string{"henri"}})
	w := &reusedWriter{header: http.Header{}}
	for _, tc := range cachedPredicts {
		t.Run(tc.name, func(t *testing.T) {
			body := &reusedBody{}
			r := httptest.NewRequest(tc.method, tc.target, nil)
			r.Body = body
			got := testing.AllocsPerRun(100, func() {
				body.Reset(tc.body)
				w.code, w.body = 0, w.body[:0]
				s.handlePredict(w, r)
			})
			if w.code != http.StatusOK {
				t.Fatalf("status %d, body %s", w.code, w.body)
			}
			if got > 3 {
				t.Errorf("a cached %s allocates %.1f times in the handler, want at most 3", tc.method, got)
			}
		})
	}
}

// TestPredictLogLines checks the request log: a line carries the run id
// and the request id the reply carries, the next request has the next
// id, and a logger at warn keeps the rejection and drops the prediction.
func TestPredictLogLines(t *testing.T) {
	for _, level := range []slog.Level{slog.LevelInfo, slog.LevelWarn} {
		var buf bytes.Buffer
		logger := slogx.New(&buf, level)
		s := warmServer(t, Options{Platforms: []string{"henri"}, Logger: logger})
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, cachedPredicts[0].target, nil))
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if want := logger.RunID() + "-000001"; resp.Request != want {
			t.Fatalf("request_id = %q, want %q", resp.Request, want)
		}
		s.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/predict?platform=henri", nil))

		want := []map[string]any{
			{"msg": "predict", "req_id": resp.Request, "placement": "comp@0/comm@1", "code": 200.0, "cached": true},
			{"msg": "predict rejected", "req_id": logger.RunID() + "-000002", "code": 400.0, "error": "serve: missing n"},
		}
		if level == slog.LevelWarn {
			want = want[1:]
		}
		var got []map[string]any
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("log line %q: %v", line, err)
			}
			if strings.HasPrefix(m["msg"].(string), "predict") {
				got = append(got, m)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("level %v: %d predict lines, want %d:\n%s", level, len(got), len(want), buf.String())
		}
		for i, line := range got {
			if line["run_id"] != logger.RunID() {
				t.Errorf("level %v, line %d: run_id = %v, want %s", level, i, line["run_id"], logger.RunID())
			}
			for k, v := range want[i] {
				if line[k] != v {
					t.Errorf("level %v, line %d: %s = %v, want %v", level, i, k, line[k], v)
				}
			}
		}
	}
}

// reusedWriter is an http.ResponseWriter that allocates nothing once its
// header map and body have grown.
type reusedWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (w *reusedWriter) Header() http.Header  { return w.header }
func (w *reusedWriter) WriteHeader(code int) { w.code = code }
func (w *reusedWriter) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}

// reusedBody is a request body that Reset refills.
type reusedBody struct{ strings.Reader }

func (*reusedBody) Close() error { return nil }

// BenchmarkHandlePredict times the /predict handler in process: the
// request goes through the Handler into an httptest.NewRecorder, with no
// socket, so an op is decode, cache hit, model.Predict and encode, the
// rung between the root package's BenchmarkPredict (model.Predict alone)
// and the serve-mixed workload (the same requests over loopback). The
// cache is warm, so no op calibrates; building the request is part of
// the op.
func BenchmarkHandlePredict(b *testing.B) {
	s := warmServer(b, Options{Platforms: []string{"henri"}, Seed: 1})
	h := s.Handler()
	for _, tc := range cachedPredicts {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var body io.Reader
				if tc.body != "" {
					body = strings.NewReader(tc.body)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, body))
				if rec.Code != http.StatusOK {
					b.Fatalf("%s %s: status %d, body %s", tc.method, tc.target, rec.Code, rec.Body)
				}
			}
		})
	}
}
