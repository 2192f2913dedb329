// Package serve is the memserve prediction service: a long-running
// HTTP/JSON server answering the paper's threshold model (§III eqs 1–8)
// at production scale — platform × n × mcomp × mcomm × kernel in,
// predicted compute/comm bandwidths out.
//
// The model itself is cheap (a handful of float comparisons per
// request); the engineering here is everything around it:
//
//   - an immutable calibration cache: the first request for a
//     (platform, kernel, seed) triple runs the §IV-A2 calibration once
//     and pins the resulting model forever, keyed by the platform name
//     plus a content hash of its hardware profile, so a profile change
//     is a different cache entry, never a mutated one;
//   - request coalescing: concurrent requests for the same uncalibrated
//     triple share one calibration run instead of stampeding;
//   - bounded concurrency with backpressure: a semaphore caps in-flight
//     requests, and excess load is shed immediately with 429 plus a
//     Retry-After hint rather than queued into latency collapse;
//   - the full live observability plane (obs.Live): /metrics,
//     /metrics.json, /healthz, /readyz, /debug/pprof, with rolling
//     p50/p90/p99 latency and window QPS refreshed on every scrape;
//   - structured request logging (slogx) with run/request correlation
//     ids, and graceful drain: on context cancellation the server flips
//     /readyz to 503, stops accepting, and waits for in-flight requests.
//
// This package is on memlint's determinism exemption list: a server
// legitimately reads the wall clock. The simulation packages it calls
// remain fully covered.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"memcontention/internal/bench"
	"memcontention/internal/calib"
	"memcontention/internal/export"
	"memcontention/internal/kernels"
	"memcontention/internal/memsys"
	"memcontention/internal/model"
	"memcontention/internal/obs"
	"memcontention/internal/obs/slogx"
	"memcontention/internal/topology"
)

// Options configures a Server. The zero value serves every built-in
// platform with sane production defaults.
type Options struct {
	// Platforms restricts (and pre-warms) the served platform set; empty
	// means every built-in Table I platform, calibrated lazily.
	Platforms []string
	// Seed is the calibration measurement-noise seed (default 1), part
	// of the cache key: predictions are reproducible per seed.
	Seed uint64
	// MaxInFlight bounds concurrently handled prediction requests
	// (default 256). Excess requests are shed with 429 + Retry-After.
	MaxInFlight int
	// RetryAfter is the backoff hint attached to shed requests
	// (default 1s, rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// Window and WindowSlices shape the rolling latency window behind
	// the p50/p90/p99 gauges (defaults: 10s over 10 slices).
	Window       time.Duration
	WindowSlices int
	// DrainTimeout bounds the graceful shutdown (default 5s).
	DrainTimeout time.Duration
	// Registry receives the serve metrics; nil creates a fresh one (the
	// live plane needs something to scrape).
	Registry *obs.Registry
	// Logger receives structured request logs; nil disables logging.
	Logger *slogx.Logger
	// Clock supplies latency timestamps (default obs.WallClock; tests
	// inject a fake for deterministic latency assertions).
	Clock obs.Clock
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 256
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.Window <= 0 {
		o.Window = 10 * time.Second
	}
	if o.WindowSlices <= 0 {
		o.WindowSlices = 10
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.Clock == nil {
		o.Clock = obs.WallClock
	}
	return o
}

// metricsSet holds the pre-created serve instruments so the request hot
// path never takes the registry lock.
type metricsSet struct {
	requests  map[int]*obs.Counter // by status code
	latency   *obs.Histogram
	inflight  *obs.Gauge
	shed      *obs.Counter
	hits      *obs.Counter
	misses    *obs.Counter
	coalesced *obs.Counter
	p50, p90  *obs.Gauge
	p99       *obs.Gauge
	qps       *obs.Gauge
}

func newMetricsSet(reg *obs.Registry) *metricsSet {
	m := &metricsSet{requests: make(map[int]*obs.Counter)}
	for _, code := range []int{200, 400, 404, 405, 413, 429, 500, 503} {
		m.requests[code] = reg.Counter("memcontention_serve_requests_total",
			"Prediction requests by HTTP status code.", obs.L{"code": strconv.Itoa(code)})
	}
	m.latency = reg.Histogram("memcontention_serve_request_seconds",
		"Prediction request latency (cumulative since start).", obs.LatencyBuckets(), nil)
	m.inflight = reg.Gauge("memcontention_serve_inflight_requests",
		"Prediction requests currently being handled.", nil)
	m.shed = reg.Counter("memcontention_serve_shed_total",
		"Requests rejected with 429 because MaxInFlight was reached.", nil)
	m.hits = reg.Counter("memcontention_serve_cache_hits_total",
		"Predictions answered from the immutable calibration cache.", nil)
	m.misses = reg.Counter("memcontention_serve_cache_misses_total",
		"Predictions that had to run a calibration first.", nil)
	m.coalesced = reg.Counter("memcontention_serve_coalesced_total",
		"Requests that joined another request's in-flight calibration.", nil)
	m.p50 = reg.Gauge("memcontention_serve_latency_quantile_seconds",
		"Rolling-window request latency quantile.", obs.L{"quantile": "0.5"})
	m.p90 = reg.Gauge("memcontention_serve_latency_quantile_seconds",
		"Rolling-window request latency quantile.", obs.L{"quantile": "0.9"})
	m.p99 = reg.Gauge("memcontention_serve_latency_quantile_seconds",
		"Rolling-window request latency quantile.", obs.L{"quantile": "0.99"})
	m.qps = reg.Gauge("memcontention_serve_window_qps",
		"Requests per second averaged over the rolling window.", nil)
	return m
}

func (m *metricsSet) code(code int) *obs.Counter {
	if c, ok := m.requests[code]; ok {
		return c
	}
	return m.requests[500]
}

// Server is the memserve HTTP service. Create with New, expose with
// Handler, run with Serve.
type Server struct {
	opts    Options
	reg     *obs.Registry
	probe   *obs.Probe
	rolling *obs.Rolling
	metrics *metricsSet
	logger  *slogx.Logger
	sem     chan struct{}
	cache   *calibCache
	mux     *http.ServeMux
	allowed map[string]bool // served platform names; nil means all built-ins
	runID   string
	reqSeq  atomic.Uint64
	// retryAfter is the Retry-After header of a shed request.
	retryAfter []string
}

// New builds a server. Unknown platform names in opts.Platforms fail
// fast rather than 404ing forever at runtime.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	var allowed map[string]bool
	if len(opts.Platforms) > 0 {
		allowed = make(map[string]bool, len(opts.Platforms))
		for _, name := range opts.Platforms {
			if _, err := topology.ByName(name); err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
			allowed[name] = true
		}
	}
	s := &Server{
		opts:       opts,
		reg:        opts.Registry,
		probe:      &obs.Probe{},
		rolling:    obs.NewRolling(obs.LatencyBuckets(), opts.Window, opts.WindowSlices, opts.Clock),
		metrics:    newMetricsSet(opts.Registry),
		logger:     opts.Logger,
		sem:        make(chan struct{}, opts.MaxInFlight),
		cache:      newCalibCache(opts.Registry, opts.Seed),
		allowed:    allowed,
		runID:      opts.Logger.RunID(),
		retryAfter: []string{strconv.Itoa(int((opts.RetryAfter + time.Second - 1) / time.Second))},
	}
	if s.runID == "" {
		s.runID = slogx.NewRunID()
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/predict", s.handlePredict)
	s.mux.HandleFunc("GET /platforms", s.handlePlatforms)
	live := &obs.Live{Registry: s.reg, Probe: s.probe, OnScrape: s.refreshDerived}
	live.Mount(s.mux)
	obs.MountPprof(s.mux)
	return s, nil
}

// Registry exposes the server's metrics registry (for exit-time
// artifacts).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Probe exposes the readiness probe.
func (s *Server) Probe() *obs.Probe { return s.probe }

// Handler returns the full route set: prediction API plus live plane.
func (s *Server) Handler() http.Handler { return s.mux }

// refreshDerived recomputes the scrape-time gauges from the rolling
// window; obs.Live calls it before every render.
func (s *Server) refreshDerived() {
	q := s.rolling.Quantiles(0.5, 0.9, 0.99)
	s.metrics.p50.Set(q[0])
	s.metrics.p90.Set(q[1])
	s.metrics.p99.Set(q[2])
	s.metrics.qps.Set(s.rolling.Rate())
}

// platformNames reports the served platform set in stable order.
func (s *Server) platformNames() []string {
	if s.allowed == nil {
		return topology.Names()
	}
	names := make([]string, 0, len(s.allowed))
	for name := range s.allowed {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Warm calibrates every served platform for the default kernel, so the
// first real request after /readyz goes green is a cache hit. It flips
// the probe to ready on success.
func (s *Server) Warm(ctx context.Context) error {
	for _, name := range s.platformNames() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, _, err := s.cache.get(name, "nt-memset"); err != nil {
			return fmt.Errorf("serve: warm %s: %w", name, err)
		}
	}
	s.probe.SetReady(true)
	return nil
}

// Response is the prediction reply.
type Response struct {
	Platform string  `json:"platform"`
	N        int     `json:"n"`
	MComp    int     `json:"mcomp"`
	MComm    int     `json:"mcomm"`
	Kernel   string  `json:"kernel"`
	CompGBps float64 `json:"comp_gbps"`
	CommGBps float64 `json:"comm_gbps"`
	Model    string  `json:"model_fingerprint"`
	Cached   bool    `json:"cached"`
	Request  string  `json:"request_id,omitempty"`
}

// jsonContentType is the Content-Type header of every reply, shared so
// that setting it allocates nothing. Nothing may modify it.
var jsonContentType = []string{"application/json"}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // past the header, failures are client disconnects
}

// writeBody sends a /predict reply: body is the JSON json.Encoder would
// have written, or nil after an encoding error, where it writes nothing.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	if body != nil {
		_, _ = w.Write(body) // past the header, failures are client disconnects
	}
}

// writeError sends the uniform error body {"error": msg}, encoded into
// *buf.
func writeError(w http.ResponseWriter, buf *[]byte, code int, msg string) {
	*buf = appendError((*buf)[:0], msg)
	writeBody(w, code, *buf)
}

// requestID names one request: the server's run id and the request's
// sequence number, formatted "<run_id>-000042".
type requestID struct {
	run string
	seq uint64
}

// appendTo appends the id's text. A run id is slogx.NewRunID's hex (or
// its fixed fallback), so the text never needs JSON escaping.
func (id requestID) appendTo(dst []byte) []byte {
	dst = append(append(dst, id.run...), '-')
	for d := uint64(100000); d > 1 && id.seq < d; d /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendUint(dst, id.seq, 10)
}

func (id requestID) String() string { return string(id.appendTo(nil)) }

// appendResponse appends what json.NewEncoder(w).Encode writes for resp
// with its Request set to id, trailing newline included, and the same
// error for a NaN or infinite bandwidth.
func appendResponse(dst []byte, resp *Response, id requestID) ([]byte, error) {
	dst = append(dst, `{"platform":`...)
	dst = export.AppendJSONString(dst, resp.Platform)
	dst = append(dst, `,"n":`...)
	dst = strconv.AppendInt(dst, int64(resp.N), 10)
	dst = append(dst, `,"mcomp":`...)
	dst = strconv.AppendInt(dst, int64(resp.MComp), 10)
	dst = append(dst, `,"mcomm":`...)
	dst = strconv.AppendInt(dst, int64(resp.MComm), 10)
	dst = append(dst, `,"kernel":`...)
	dst = export.AppendJSONString(dst, resp.Kernel)
	dst = append(dst, `,"comp_gbps":`...)
	dst, err := export.AppendJSONFloat(dst, resp.CompGBps)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"comm_gbps":`...)
	if dst, err = export.AppendJSONFloat(dst, resp.CommGBps); err != nil {
		return dst, err
	}
	dst = append(dst, `,"model_fingerprint":`...)
	dst = export.AppendJSONString(dst, resp.Model)
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, resp.Cached)
	dst = append(dst, `,"request_id":"`...)
	return append(id.appendTo(dst), "\"}\n"...), nil
}

// appendError appends what json.NewEncoder(w).Encode writes for the
// error body {"error": msg}, trailing newline included.
func appendError(dst []byte, msg string) []byte {
	dst = append(dst, `{"error":`...)
	return append(export.AppendJSONString(dst, msg), "}\n"...)
}

// maxBody bounds a /predict request body; a longer one is refused with
// 413 before it is parsed.
const maxBody = 1 << 16

var errBodyTooLarge = fmt.Errorf("serve: request body larger than %d bytes", maxBody)

// buffers hold the scratch bytes of a /predict request: its body is read
// into one, then its reply is encoded into the same one.
var buffers = sync.Pool{New: func() any { return new([]byte) }}

// readBody appends r's bytes to dst until EOF, failing with
// errBodyTooLarge once they exceed maxBody.
func readBody(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, 512)
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		switch {
		case len(dst) > maxBody:
			return dst, errBodyTooLarge
		case errors.Is(err, io.EOF):
			return dst, nil
		case err != nil:
			return dst, err
		}
	}
}

func (s *Server) handlePlatforms(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, struct {
		Platforms []string `json:"platforms"`
		Kernels   []string `json:"kernels"`
	}{s.platformNames(), KernelNames()})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	buf := buffers.Get().(*[]byte)
	defer func() {
		if cap(*buf) <= 4*maxBody { // a long error text is not kept
			buffers.Put(buf)
		}
	}()
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		s.metrics.code(405).Inc()
		w.Header().Set("Allow", "GET, POST")
		writeError(w, buf, http.StatusMethodNotAllowed, "use GET with query parameters or POST with a JSON body")
		return
	}
	// Backpressure: shed immediately when saturated; a queued request
	// would only convert overload into latency.
	select {
	case s.sem <- struct{}{}:
	default:
		s.metrics.shed.Inc()
		s.metrics.code(429).Inc()
		w.Header()["Retry-After"] = s.retryAfter
		writeError(w, buf, http.StatusTooManyRequests, "server saturated; retry after the indicated backoff")
		return
	}
	defer func() { <-s.sem }()
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)

	start := s.opts.Clock()
	id := requestID{run: s.runID, seq: s.reqSeq.Add(1)}
	code, resp, err := s.predict(r, buf)
	elapsed := s.opts.Clock().Sub(start).Seconds()
	s.rolling.Observe(elapsed)
	s.metrics.latency.Observe(elapsed)
	s.metrics.code(code).Inc()

	if err != nil {
		if s.logger.Enabled(slog.LevelWarn) {
			s.logger.With("req_id", id.String()).Warn("predict rejected",
				"method", r.Method, "code", code, "seconds", elapsed, "error", err.Error())
		}
		writeError(w, buf, code, err.Error())
		return
	}
	if s.logger.Enabled(slog.LevelInfo) {
		place := model.Placement{Comp: topology.NodeID(resp.MComp), Comm: topology.NodeID(resp.MComm)}
		s.logger.With("req_id", id.String()).Info("predict",
			"platform", resp.Platform, "n", resp.N, "placement", place.String(),
			"kernel", resp.Kernel, "code", code, "cached", resp.Cached, "seconds", elapsed)
	}
	body, err := appendResponse((*buf)[:0], &resp, id)
	*buf = body
	if err != nil {
		body = nil
	}
	writeBody(w, code, body)
}

// predict runs one request through the cache and model, and reports the
// HTTP status to attribute it to. It reads the body into *buf.
func (s *Server) predict(r *http.Request, buf *[]byte) (int, Response, error) {
	var body []byte
	if r.Body != nil {
		b, err := readBody((*buf)[:0], r.Body)
		*buf = b
		if errors.Is(err, errBodyTooLarge) {
			return 413, Response{}, err
		}
		if err != nil {
			return 400, Response{}, fmt.Errorf("reading request body: %w", err)
		}
		body = b
	}
	q, err := decodeHTTP(body, r.URL.RawQuery)
	if err != nil {
		return 400, Response{}, err
	}
	if s.allowed != nil && !s.allowed[q.Platform] {
		return 404, Response{}, fmt.Errorf("serve: platform %q is not served by this instance", q.Platform)
	}
	entry, cached, err := s.cache.get(q.Platform, q.Kernel)
	if err != nil {
		if _, nameErr := topology.ByName(q.Platform); nameErr != nil {
			return 404, Response{}, nameErr
		}
		return 500, Response{}, err
	}
	if cached {
		s.metrics.hits.Inc()
	} else {
		s.metrics.misses.Inc()
	}
	pred, err := entry.model.Predict(q.N, q.Placement())
	if err != nil {
		return 400, Response{}, err
	}
	return 200, Response{
		Platform: q.Platform,
		N:        q.N,
		MComp:    q.MComp,
		MComm:    q.MComm,
		Kernel:   q.Kernel,
		CompGBps: pred.Comp,
		CommGBps: pred.Comm,
		Model:    entry.fingerprint,
		Cached:   cached,
	}, nil
}

// Serve runs the server on ln until ctx is cancelled, then drains
// gracefully: readiness goes false first (load balancers stop routing),
// then in-flight requests get DrainTimeout to finish. A clean drain
// returns nil.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		s.probe.SetReady(false)
		s.logger.Info("draining", "timeout", s.opts.DrainTimeout.String())
		drainCtx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
		defer cancel()
		done <- srv.Shutdown(drainCtx)
	}()
	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	if ctx.Err() != nil {
		if shutdownErr := <-done; shutdownErr != nil && err == nil {
			err = fmt.Errorf("serve: drain: %w", shutdownErr)
		}
	}
	return err
}

// entry is one immutable cache value: a calibrated model pinned to the
// exact platform profile content it was calibrated from.
type entry struct {
	model       model.Model
	platform    *topology.Platform
	fingerprint string
}

// calibCache memoises calibrations. Entries are write-once: get either
// returns the pinned entry, joins an in-flight calibration (coalescing),
// or runs the calibration itself.
type calibCache struct {
	reg  *obs.Registry
	seed uint64

	mu sync.Mutex
	// memlint:guard mu
	done map[cacheKey]*entry
	// memlint:guard mu
	inflight map[cacheKey]*calibCall
}

type cacheKey struct{ platform, kernel string }

type calibCall struct {
	ready chan struct{}
	e     *entry
	err   error
}

func newCalibCache(reg *obs.Registry, seed uint64) *calibCache {
	return &calibCache{
		reg:      reg,
		seed:     seed,
		done:     make(map[cacheKey]*entry),
		inflight: make(map[cacheKey]*calibCall),
	}
}

// coalesced is bumped via the server's metrics set; the cache keeps its
// own counter reference to avoid a back-pointer.
func (c *calibCache) coalescedCounter() *obs.Counter {
	return c.reg.Counter("memcontention_serve_coalesced_total",
		"Requests that joined another request's in-flight calibration.", nil)
}

// get returns the calibrated entry for (platform, kernel), reporting
// whether it was already cached. Concurrent misses for the same key share
// one calibration run.
func (c *calibCache) get(platform, kernel string) (*entry, bool, error) {
	key := cacheKey{platform, kernel}
	c.mu.Lock()
	if e, ok := c.done[key]; ok {
		c.mu.Unlock()
		return e, true, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.coalescedCounter().Inc()
		<-call.ready
		return call.e, call.e != nil, call.err
	}
	call := &calibCall{ready: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()

	call.e, call.err = c.calibrate(platform, kernel)

	c.mu.Lock()
	if call.err == nil {
		c.done[key] = call.e
	}
	delete(c.inflight, key)
	c.mu.Unlock()
	close(call.ready)
	return call.e, false, call.err
}

// calibrate runs the §IV-A2 pipeline once: benchmark the two sample
// placements, extract parameters, combine. The fingerprint binds the
// entry to the platform name, the profile's exact JSON content, the
// kernel and the seed — the "platform + profile hash" cache key.
func (c *calibCache) calibrate(platform, kernel string) (*entry, error) {
	plat, err := topology.ByName(platform)
	if err != nil {
		return nil, err
	}
	prof, err := memsys.ProfileFor(plat.Name)
	if err != nil {
		return nil, err
	}
	kind, err := KernelByName(kernel)
	if err != nil {
		return nil, err
	}
	runner, err := bench.NewRunner(bench.Config{
		Platform: plat,
		Profile:  prof,
		Kernel:   kernels.New(kind),
		Seed:     c.seed,
		Registry: c.reg,
	})
	if err != nil {
		return nil, err
	}
	m, err := calib.CalibrateRunner(runner)
	if err != nil {
		return nil, err
	}
	return &entry{
		model:       m,
		platform:    plat,
		fingerprint: profileFingerprint(platform, kernel, c.seed, prof),
	}, nil
}

// profileFingerprint content-addresses a cache entry: fnv64a over the
// identifying inputs, rendered as fixed-width hex.
func profileFingerprint(platform, kernel string, seed uint64, prof *memsys.Profile) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|", platform, kernel, seed)
	if data, err := json.Marshal(prof); err == nil {
		h.Write(data)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
