// Command memtop is the fleet monitor of a campaign directory: it joins
// the campaign event journal (events/), the shard journals and the lease
// files (leases/) into one consistent live view — which workers are
// alive, which leases are stale or fenced, how many units are done,
// pending and quarantined, and the campaign's ETA at the fleet's current
// throughput. It is strictly read-only: pointing it at a live campaign
// never perturbs the workers it observes.
//
// Usage:
//
//	memtop -dir run/                  # one-shot text report
//	memtop -dir run/ -watch 2s       # refresh every 2s until interrupted
//	memtop -dir run/ -json           # stable-JSON report (scripting, CI)
//	memtop -dir run/ -events         # the merged causal event timeline
//	memtop -dir run/ -serve :9090    # Prometheus plane: memcontention_fleet_*
//	memtop -dir run/ -lease-ttl 2s   # match a campaign running short leases
//
// Done counts come from the shard journals — the same ground truth
// `memworker -merge` consumes — never from events, so memtop's totals
// always agree with the merged artifacts. A running worker reads as
// stale once neither an event nor a lease heartbeat of it is newer than
// the lease TTL plus grace. With -serve, the obs.Live plane (/metrics,
// /metrics.json, /healthz, /readyz) recomputes the fleet report on
// every scrape.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"memcontention/internal/campaign"
	"memcontention/internal/checkpoint"
	"memcontention/internal/obs"
)

// options are memtop's parsed command-line inputs.
type options struct {
	dir     string
	jsonOut bool
	events  bool
	watch   time.Duration
	serve   string
	ttl     time.Duration
	grace   time.Duration

	// clock drives every age computation; tests inject a manual clock
	// for byte-deterministic reports (nil: obs.WallClock).
	clock obs.Clock
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "memtop:", err)
		os.Exit(2)
	}
	ctx, stop := checkpoint.SignalContext()
	err = run(ctx, os.Stdout, o)
	stop()
	if code := checkpoint.Report(os.Stderr, "memtop", err); code != 0 {
		os.Exit(code)
	}
}

// parseFlags registers and parses the flag set; split from main so tests
// can drive it.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.dir, "dir", "", "campaign directory to monitor (required)")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the report as stable JSON instead of text")
	fs.BoolVar(&o.events, "events", false, "print the merged causal event timeline instead of the status report")
	fs.DurationVar(&o.watch, "watch", 0, "refresh interval; 0 renders once and exits")
	fs.StringVar(&o.serve, "serve", "", "serve the live metrics plane (memcontention_fleet_*) on this address")
	fs.DurationVar(&o.ttl, "lease-ttl", 0, "lease TTL the campaign runs with, for staleness judgement (default 15s)")
	fs.DurationVar(&o.grace, "lease-grace", 0, "staleness grace past the TTL (default TTL/2; negative: none)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.dir == "" {
		return o, fmt.Errorf("-dir is required: point memtop at the campaign directory")
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.jsonOut && o.events {
		return o, fmt.Errorf("-json and -events are mutually exclusive (the JSON report already embeds the timeline)")
	}
	return o, nil
}

// collect builds one fleet report under the configured staleness rules.
func collect(o options) (*campaign.FleetReport, error) {
	return campaign.CollectFleet(campaign.FleetOptions{
		Dir:   o.dir,
		TTL:   o.ttl,
		Grace: o.grace,
		Clock: o.clock,
	})
}

// render writes one report in the selected format.
func render(w io.Writer, o options, rep *campaign.FleetReport) error {
	switch {
	case o.jsonOut:
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fmt.Errorf("memtop: encode report: %w", err)
		}
		_, err = fmt.Fprintf(w, "%s\n", data)
		return err
	case o.events:
		return rep.WriteTimeline(w)
	default:
		return rep.WriteText(w)
	}
}

// run executes memtop; split from main so tests can drive the full
// logic with their own context, output sink and clock.
func run(ctx context.Context, w io.Writer, o options) error {
	if o.serve != "" {
		return serveFleet(ctx, w, o)
	}
	if o.watch <= 0 {
		rep, err := collect(o)
		if err != nil {
			return err
		}
		return render(w, o, rep)
	}
	for {
		rep, err := collect(o)
		if err != nil {
			return err
		}
		// Cursor-home plus clear-to-end keeps a terminal watch stable
		// without erasing scrollback; piped output just sees the codes
		// as frame separators.
		fmt.Fprint(w, "\033[H\033[J")
		if err := render(w, o, rep); err != nil {
			return err
		}
		if err := sleep(ctx, o.watch); err != nil {
			return nil // interrupted watch is a clean exit
		}
	}
}

// serveFleet mounts the obs.Live plane over a registry refreshed from a
// fresh fleet report on every scrape, so Prometheus always sees current
// memcontention_fleet_* values.
func serveFleet(ctx context.Context, w io.Writer, o options) error {
	// Fail fast on an unreadable campaign before binding the listener.
	rep, err := collect(o)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	rep.Publish(reg)
	probe := &obs.Probe{}
	probe.SetReady(true)
	live := &obs.Live{
		Registry: reg,
		Probe:    probe,
		OnScrape: func() {
			if rep, err := collect(o); err == nil {
				rep.Publish(reg)
			}
		},
	}
	ln, err := net.Listen("tcp", o.serve)
	if err != nil {
		return fmt.Errorf("memtop: listen %s: %w", o.serve, err)
	}
	fmt.Fprintf(w, "memtop: serving fleet metrics on %s\n", ln.Addr())
	srv := &http.Server{Handler: live.Handler()}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		probe.SetReady(false)
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("memtop: shutdown: %w", err)
		}
		return nil
	case err := <-done:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return fmt.Errorf("memtop: serve: %w", err)
	}
}

// sleep waits for d, honoring ctx.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
