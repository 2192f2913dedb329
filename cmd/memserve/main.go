// Command memserve is the contention-prediction service: a long-running
// HTTP/JSON server answering the paper's threshold model (§III) for any
// built-in platform, kernel and placement, with the full live
// observability plane mounted.
//
// Usage:
//
//	memserve                                  # serve all platforms on localhost:8080
//	memserve -addr :9000 -platforms henri,dahu
//	memserve -seed 7 -max-inflight 512
//
// Endpoints:
//
//	GET|POST /predict      platform, n, mcomp, mcomm, kernel → bandwidths
//	GET /platforms         served platforms and kernels
//	GET /metrics           live Prometheus text exposition
//	GET /metrics.json      live stable-JSON snapshot
//	GET /healthz, /readyz  probes (/readyz goes 503 during drain)
//	GET /debug/pprof/      profiling plane
//
// Request logs are JSON lines on stderr with run/request correlation ids;
// the -manifest artifact written at exit carries the same run id. SIGINT
// or SIGTERM drains gracefully: readiness flips first, in-flight requests
// finish, then telemetry artifacts are flushed (exit status 130, the
// repo's interrupted-cleanly convention).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"memcontention/internal/checkpoint"
	"memcontention/internal/obs"
	"memcontention/internal/obs/slogx"
	"memcontention/internal/serve"
)

// options are memserve's parsed command-line inputs.
type options struct {
	addr        string
	platforms   string
	seed        uint64
	maxInFlight int
	window      time.Duration
	drain       time.Duration
	logLevel    string
	quiet       bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "localhost:8080", "listen address (host:port; :0 picks a free port)")
	flag.StringVar(&o.platforms, "platforms", "", "comma-separated platform allowlist (default: all built-ins)")
	flag.Uint64Var(&o.seed, "seed", 1, "calibration measurement-noise seed (part of the cache key)")
	flag.IntVar(&o.maxInFlight, "max-inflight", 256, "max concurrently handled predictions before shedding with 429")
	flag.DurationVar(&o.window, "window", 10*time.Second, "rolling latency/QPS window behind the quantile gauges")
	flag.DurationVar(&o.drain, "drain-timeout", 5*time.Second, "graceful shutdown budget for in-flight requests")
	flag.StringVar(&o.logLevel, "log-level", "info", "request log level: debug, info, warn, error")
	flag.BoolVar(&o.quiet, "quiet", false, "disable request logging entirely")
	var cli obs.CLI
	cli.Register(flag.CommandLine, false)
	flag.Parse()

	ctx, stop := checkpoint.SignalContext()
	err := run(ctx, os.Stdout, os.Stderr, o, &cli, nil)
	stop()
	if code := checkpoint.Report(os.Stderr, "memserve", err); code != 0 {
		os.Exit(code)
	}
}

// run builds, warms and serves; split from main so the smoke test can
// drive the full path with its own context and read the bound address
// through onReady.
func run(ctx context.Context, stdout, logw io.Writer, o options, cli *obs.CLI, onReady func(addr string)) error {
	if o.maxInFlight < 1 {
		return fmt.Errorf("-max-inflight %d: must be a positive request count", o.maxInFlight)
	}
	if o.window <= 0 {
		return fmt.Errorf("-window %v: must be a positive duration", o.window)
	}
	if o.drain <= 0 {
		return fmt.Errorf("-drain-timeout %v: must be a positive duration", o.drain)
	}
	level, err := slogx.ParseLevel(o.logLevel)
	if err != nil {
		return fmt.Errorf("-log-level %s: %w", o.logLevel, err)
	}
	if err := cli.Start(); err != nil {
		return err
	}
	var logger *slogx.Logger
	if !o.quiet {
		logger = slogx.New(logw, level)
	}
	reg := cli.NewRegistry()
	if reg == nil {
		// The live plane always needs a registry, -metrics/-manifest or not.
		reg = obs.NewRegistry()
	}
	var platforms []string
	if strings.TrimSpace(o.platforms) != "" {
		for _, p := range strings.Split(o.platforms, ",") {
			platforms = append(platforms, strings.TrimSpace(p))
		}
	}
	srv, err := serve.New(serve.Options{
		Platforms:    platforms,
		Seed:         o.seed,
		MaxInFlight:  o.maxInFlight,
		Window:       o.window,
		DrainTimeout: o.drain,
		Registry:     reg,
		Logger:       logger,
	})
	if err != nil {
		return err
	}
	if err := srv.Warm(ctx); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return fmt.Errorf("memserve: listen on %s: %w", o.addr, err)
	}
	fmt.Fprintf(stdout, "memserve: serving on http://%s (predict, platforms, metrics, healthz, readyz, debug/pprof)\n", ln.Addr())
	logger.Info("serving", "addr", ln.Addr().String(), "platforms", strings.Join(platformsOrAll(platforms), ","), "seed", o.seed)
	if onReady != nil {
		onReady(ln.Addr().String())
	}
	serveErr := srv.Serve(ctx, ln)

	man := obs.NewManifest("memserve")
	man.Seed = o.seed
	man.Notes = map[string]string{"addr": ln.Addr().String(), "run_id": logger.RunID()}
	if finishErr := cli.Finish(reg, nil, man); finishErr != nil && serveErr == nil {
		serveErr = finishErr
	}
	if serveErr == nil {
		// A drain triggered by the signal context is the interrupted-
		// cleanly path: surface it so main exits 130 like every command.
		serveErr = ctx.Err()
	}
	return serveErr
}

func platformsOrAll(platforms []string) []string {
	if len(platforms) == 0 {
		return []string{"all"}
	}
	return platforms
}
