package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"

	"memcontention/internal/bench"
	"memcontention/internal/calib"
	"memcontention/internal/kernels"
	"memcontention/internal/memsys"
	"memcontention/internal/model"
	"memcontention/internal/obs"
	"memcontention/internal/rng"
	"memcontention/internal/serve"
	"memcontention/internal/topology"
)

const (
	// serveClients is the number of client connections, one per CPU of
	// the machine: each waits for its reply before sending again, like
	// the runtime system of §VI asking for one prediction at a time.
	serveClients = 2
	// serveMix is the number of generated requests, cycled through.
	serveMix = 4096
	// serveTraceEvery: the traced run records the spans of one request
	// in this many, which keeps its span file near 10 MB.
	serveTraceEvery = 8
)

// predictReq is one generated /predict request and the reply it must get.
type predictReq struct {
	get   bool
	url   string     // full GET URL, or the POST target
	body  []byte     // POST JSON body
	query url.Values // GET parameters, for the decode replay
	key   string     // platform|kernel
	n     int
	pl    model.Placement
	want  model.Prediction
}

// serveMixed sends /predict requests to an in-process memserve over
// loopback from serveClients closed-loop connections.
type serveMixed struct {
	srv    *serve.Server
	stop   context.CancelFunc
	served chan error
	base   string
	client *http.Client
	conns  *connGauge
	reqs   []predictReq
	models map[string]model.Model // the benchmark's own calibrations

	mark  serveCounters // at the start of the current timed phase
	phase serveCounters // what the last timed phase added
}

func (s *serveMixed) workers() int { return serveClients }
func (s *serveMixed) passLen() int { return 1 }
func (s *serveMixed) attach()      {}

func (s *serveMixed) setUp(seed uint64, tr *tracer) error {
	reg := obs.NewRegistry()
	srv, err := serve.New(serve.Options{Seed: seed, Registry: reg})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, stop := context.WithCancel(context.Background())
	s.srv, s.stop, s.served = srv, stop, make(chan error, 1)
	go func() { s.served <- srv.Serve(ctx, ln) }()
	s.base = "http://" + ln.Addr().String()
	s.conns = &connGauge{}
	dialer := &net.Dialer{}
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveClients,
		MaxIdleConns:        serveClients,
		MaxIdleConnsPerHost: serveClients,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return s.conns.open(c), nil
		},
	}}
	if err := srv.Warm(ctx); err != nil {
		return err
	}
	if err := s.calibrate(seed, tr); err != nil {
		return err
	}
	if err := s.generate(seed); err != nil {
		return err
	}
	// One request per (platform, kernel) fills the server's calibration
	// cache, so the timed phase only ever hits it.
	warmed := map[string]bool{}
	for i := range s.reqs {
		if q := &s.reqs[i]; !warmed[q.key] {
			warmed[q.key] = true
			if err := s.send(q, -1, 0, tr); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	if len(warmed) != len(s.models) {
		return fmt.Errorf("request mix covers %d of %d (platform, kernel) pairs", len(warmed), len(s.models))
	}
	s.mark = readServeCounters(reg)
	return nil
}

// calibrate runs the §IV-A2 calibration of every (platform, kernel) pair
// the way the server does, giving the replies the benchmark expects.
func (s *serveMixed) calibrate(seed uint64, tr *tracer) error {
	s.models = make(map[string]model.Model)
	for _, plat := range topology.Testbed() {
		prof, err := memsys.ProfileFor(plat.Name)
		if err != nil {
			return err
		}
		for _, kernel := range serve.KernelNames() {
			kind, err := serve.KernelByName(kernel)
			if err != nil {
				return err
			}
			runner, err := bench.NewRunner(bench.Config{Platform: plat, Profile: prof, Kernel: kernels.New(kind), Seed: seed})
			if err != nil {
				return err
			}
			key := plat.Name + "|" + kernel
			if err := tr.do(-1, 0, "calib.CalibrateRunner", key, func() error {
				m, err := calib.CalibrateRunner(runner)
				s.models[key] = m
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// generate draws the request mix: platform × kernel × n × (mcomp, mcomm),
// every other request a GET query string, the rest POST JSON bodies.
func (s *serveMixed) generate(seed uint64) error {
	r := rng.New(seed, "serve-mixed")
	plats := topology.Testbed()
	kernelNames := serve.KernelNames()
	s.reqs = make([]predictReq, serveMix)
	for i := range s.reqs {
		plat := plats[r.Intn(len(plats))]
		kernel := kernelNames[r.Intn(len(kernelNames))]
		w := serve.Request{
			Platform: plat.Name,
			Kernel:   kernel,
			N:        1 + r.Intn(plat.CoresPerSocket()),
			MComp:    r.Intn(plat.NNodes()),
			MComm:    r.Intn(plat.NNodes()),
		}
		q := predictReq{get: i%2 == 0, key: plat.Name + "|" + kernel, n: w.N, pl: w.Placement(), url: s.base + "/predict"}
		want, err := s.models[q.key].Predict(q.n, q.pl)
		if err != nil {
			return err
		}
		q.want = want
		if q.get {
			q.query = url.Values{}
			q.query.Set("platform", w.Platform)
			q.query.Set("kernel", w.Kernel)
			q.query.Set("n", fmt.Sprint(w.N))
			q.query.Set("mcomp", fmt.Sprint(w.MComp))
			q.query.Set("mcomm", fmt.Sprint(w.MComm))
			q.url += "?" + q.query.Encode()
		} else if q.body, err = json.Marshal(w); err != nil {
			return err
		}
		s.reqs[i] = q
	}
	return nil
}

func (s *serveMixed) op(_ int, id int64, tr *tracer) error {
	if id%serveTraceEvery != 0 {
		tr = nil
	}
	return s.send(&s.reqs[id%int64(len(s.reqs))], id, tr.begin(id, 0, "op.serve-mixed", ""), tr)
}

// send makes one request and checks the reply against the benchmark's
// own model.Predict.
func (s *serveMixed) send(q *predictReq, id int64, root int, tr *tracer) error {
	defer tr.end(root)
	var req *http.Request
	var err error
	if q.get {
		req, err = http.NewRequest(http.MethodGet, q.url, nil)
	} else {
		req, err = http.NewRequest(http.MethodPost, q.url, bytes.NewReader(q.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return err
	}
	var status int
	var body []byte
	if err := tr.do(id, root, "net/http.Client.Do", "", func() error {
		resp, err := s.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		body, err = io.ReadAll(resp.Body)
		return err
	}); err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var got serve.Response
	if err := tr.do(id, root, "encoding/json.Unmarshal", "", func() error { return json.Unmarshal(body, &got) }); err != nil {
		return err
	}
	if got.CompGBps != q.want.Comp || got.CommGBps != q.want.Comm {
		return fmt.Errorf("%s n=%d %v: got comp %v comm %v GB/s, model.Predict gives %v and %v",
			q.key, q.n, q.pl, got.CompGBps, got.CommGBps, q.want.Comp, q.want.Comm)
	}
	return nil
}

// endPhase checks the load shape of the timed phase that just ended:
// every prediction came from the cache, none was shed, and the client
// never held more than serveClients connections.
func (s *serveMixed) endPhase() error {
	now := readServeCounters(s.srv.Registry())
	s.phase, s.mark = now.minus(s.mark), now
	var errs []error
	if r := s.phase.hitRatio(); r.value() < 1 {
		errs = append(errs, fmt.Errorf("serve.cache_hit_ratio %s < 1 in the timed phase", r))
	}
	if r := s.phase.shedRatio(); r.value() > 0 {
		errs = append(errs, fmt.Errorf("serve.shed_ratio %s > 0 in the timed phase", r))
	}
	if peak := s.conns.peak.Load(); peak > serveClients {
		errs = append(errs, fmt.Errorf("client held %d connections at once, cap %d", peak, serveClients))
	}
	return errors.Join(errs...)
}

func (s *serveMixed) tearDown() {
	if s.stop == nil {
		return
	}
	s.client.CloseIdleConnections()
	s.stop()
	<-s.served
	s.stop = nil
}

func (s *serveMixed) layers(m *layerSet, ph phases, spans []span) error {
	ops := float64(ph.traced.ops)
	m.setRatio("serve.cache_hit_ratio", s.phase.hitRatio())
	m.setRatio("serve.shed_ratio", s.phase.shedRatio())
	m.set("memsys.solve_calls_per_op", s.phase.solves/ops)
	m.set("bench.points_per_op", s.phase.points/ops)
	m.set("calib.fits_per_op", s.phase.fits/ops)

	secs, calls := spanTotals(spans)
	client := secs["net/http.Client.Do"] / float64(calls["net/http.Client.Do"])
	server := s.phase.handlerSec / s.phase.handled
	m.set("serve.client_rtt_us", client*1e6)
	m.setRatio("serve.handler_share", ratio{num: server * 1e6, base: client * 1e6})

	var calib, n float64
	for _, sp := range spans {
		if sp.Name == "calib.CalibrateRunner" {
			calib += float64(sp.End-sp.Start) / 1e9
			n++
		}
	}
	m.set("calib.calibrate_ms", calib/n*1e3)

	p50, err := s.scrapeP50()
	if err != nil {
		return err
	}
	m.set("serve.handler_us_p50", p50*1e6)

	sec, err := timeMedian(func() error {
		for i := range s.reqs {
			q := &s.reqs[i]
			if _, err := serve.DecodeRequest(q.body, q.query); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("serve.decode_us", sec/float64(len(s.reqs))*1e6)
	if sec, err = timeMedian(func() error {
		for i := range s.reqs {
			q := &s.reqs[i]
			if _, err := s.models[q.key].Predict(q.n, q.pl); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m.set("model.predict_ns", sec/float64(len(s.reqs))*1e9)
	return nil
}

// scrapeP50 reads the server's rolling-window median latency from its
// live /metrics page.
func (s *serveMixed) scrapeP50() (float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	st, err := obs.ParseExposition(string(text))
	if err != nil {
		return 0, err
	}
	v, ok := st.Value(`memcontention_serve_latency_quantile_seconds{quantile="0.5"}`)
	if !ok {
		return 0, errors.New("/metrics has no p50 latency gauge")
	}
	return v, nil
}

// serveCounters are the server-side counts a timed phase is judged by.
type serveCounters struct {
	hits, misses, shed, requests float64
	handlerSec, handled          float64
	solves, points, fits         float64
}

func readServeCounters(reg *obs.Registry) serveCounters {
	sum, count := histogramSum(reg, "memcontention_serve_request_seconds")
	return serveCounters{
		hits:       counterSum(reg, "memcontention_serve_cache_hits_total"),
		misses:     counterSum(reg, "memcontention_serve_cache_misses_total"),
		shed:       counterSum(reg, "memcontention_serve_shed_total"),
		requests:   counterSum(reg, "memcontention_serve_requests_total"),
		handlerSec: sum,
		handled:    float64(count),
		solves:     counterSum(reg, "memcontention_bench_solves_total"),
		points:     counterSum(reg, "memcontention_bench_points_total"),
		fits:       counterSum(reg, "memcontention_calib_fits_total"),
	}
}

func (c serveCounters) minus(o serveCounters) serveCounters {
	return serveCounters{
		hits: c.hits - o.hits, misses: c.misses - o.misses, shed: c.shed - o.shed, requests: c.requests - o.requests,
		handlerSec: c.handlerSec - o.handlerSec, handled: c.handled - o.handled,
		solves: c.solves - o.solves, points: c.points - o.points, fits: c.fits - o.fits,
	}
}

func (c serveCounters) hitRatio() ratio  { return ratio{num: c.hits, base: c.hits + c.misses} }
func (c serveCounters) shedRatio() ratio { return ratio{num: c.shed, base: c.requests} }

// connGauge tracks the client's open connections and their peak.
type connGauge struct {
	cur, peak atomic.Int64
}

func (g *connGauge) open(c net.Conn) net.Conn {
	n := g.cur.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			break
		}
	}
	return &countedConn{Conn: c, g: g}
}

type countedConn struct {
	net.Conn
	g    *connGauge
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.g.cur.Add(-1) })
	return c.Conn.Close()
}
