// Command memworker is one worker process of a remote multi-process
// campaign (docs/campaigns.md, "Remote campaigns"). Several memworker
// processes — started independently, on one machine or on several
// sharing a filesystem — rendezvous on a campaign directory, split its
// shards via lease files (internal/lease), and journal completed units
// into epoch-suffixed shard journals. There is no coordinator: a worker
// that dies simply stops heartbeating and any survivor takes its shards
// over after the lease TTL.
//
// Usage:
//
//	memworker -dir run/                 # join (or start) the campaign in run/
//	memworker -dir run/ -seed 7 -platforms henri,dahu -shard-count 4
//	                                    # pin parameters when starting fresh
//	memworker -dir run/ -lease-ttl 30s -heartbeat 5s
//	memworker -dir run/ -merge -out results/
//	                                    # finalize: wait, merge, write artifacts
//
// The first worker to touch the directory writes campaign.json pinning
// (seed, platforms, shards, replications); joining workers inherit it,
// and explicitly conflicting flags are rejected with the exact
// disagreement. SIGINT/SIGTERM shuts down in two stages: the first
// signal stops at the next unit boundary and releases all held leases
// (successors claim them immediately, no TTL wait); a second signal
// exits right away with status 130 — completed units are already
// fsynced and the abandoned leases expire on their own. A unit that fails
// (or panics) on every attempt is quarantined: the worker journals
// everything else, lists the quarantined units in its closing output and
// exits with the quarantine error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"memcontention/internal/campaign"
	"memcontention/internal/checkpoint"
	"memcontention/internal/lease"
	"memcontention/internal/topology"
)

// options are memworker's parsed command-line inputs.
type options struct {
	dir          string
	seed         uint64
	platforms    string
	shards       int
	replications int
	ttl          time.Duration
	heartbeat    time.Duration
	merge        bool
	out          string
	unitDelay    time.Duration

	// set records which flags were given explicitly, so a joining
	// worker only argues with the manifest about values the user
	// actually asked for.
	set map[string]bool
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "memworker:", err)
		os.Exit(2)
	}
	ctx, stop := checkpoint.SignalContext()
	err = run(ctx, os.Stdout, o)
	stop()
	if code := checkpoint.Report(os.Stderr, "memworker", err); code != 0 {
		os.Exit(code)
	}
}

// parseFlags registers and parses the flag set; split from main so tests
// can drive it.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.dir, "dir", "", "campaign directory (required): shard journals, leases/, campaign.json")
	fs.Uint64Var(&o.seed, "seed", 1, "measurement noise seed (pinned by campaign.json once the campaign exists)")
	fs.StringVar(&o.platforms, "platforms", "", "comma-separated platform names (default: the full testbed; pinned by campaign.json)")
	fs.IntVar(&o.shards, "shard-count", 0, "number of shards (0: GOMAXPROCS; pinned by campaign.json)")
	fs.IntVar(&o.replications, "replications", 1, "Monte-Carlo replication sweep width (pinned by campaign.json)")
	fs.DurationVar(&o.ttl, "lease-ttl", 0, "lease time-to-live: how long after its last heartbeat a worker is presumed dead (default 15s)")
	fs.DurationVar(&o.heartbeat, "heartbeat", 0, "lease renewal interval (default TTL/5; must be < TTL/3)")
	fs.BoolVar(&o.merge, "merge", false, "finalize instead of working: wait for every unit, merge all shard journals, assemble artifacts")
	fs.StringVar(&o.out, "out", "", "with -merge: write the pipeline artifacts into this directory")
	fs.DurationVar(&o.unitDelay, "unit-delay", 0, "test throttle: sleep this long before each unit (gives kill-based harnesses a window)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	if o.dir == "" {
		return o, fmt.Errorf("-dir is required: the campaign directory is the rendezvous point")
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return o, nil
}

// manifestWant assembles the manifest this invocation asks for: the
// existing campaign.json where present (the campaign's authority),
// overridden only by flags the user passed explicitly — so joining with
// plain `memworker -dir run/` always agrees, while an explicit
// conflicting flag is rejected by EnsureManifest with the exact field.
func manifestWant(o options) (campaign.Manifest, error) {
	want := campaign.Manifest{
		Seed:         o.seed,
		Platforms:    splitPlatforms(o.platforms),
		Shards:       o.shards,
		Replications: normReplications(o.replications),
	}
	have, err := campaign.LoadManifest(o.dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			if len(want.Platforms) == 0 {
				want.Platforms = campaign.TestbedNames()
			}
			return want, nil
		}
		return campaign.Manifest{}, err
	}
	if !o.set["seed"] {
		want.Seed = have.Seed
	}
	if !o.set["platforms"] {
		want.Platforms = have.Platforms
	}
	if !o.set["shard-count"] || o.shards == 0 {
		want.Shards = have.Shards
	}
	if !o.set["replications"] {
		want.Replications = have.Replications
	}
	return want, nil
}

// splitPlatforms parses the -platforms list ("" means default testbed).
func splitPlatforms(s string) []string {
	if s == "" {
		return nil
	}
	var names []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// normReplications maps the CLI convention (0 and 1 both mean a single
// replication) onto the manifest's canonical form.
func normReplications(r int) int {
	if r <= 1 {
		return 0
	}
	return r
}

// run executes the worker (or finalizer) core; split from main so tests
// can drive the full logic with their own context and output sink.
func run(ctx context.Context, w io.Writer, o options) error {
	want, err := manifestWant(o)
	if err != nil {
		return err
	}
	for _, name := range want.Platforms {
		if _, err := topology.ByName(name); err != nil {
			return err
		}
	}
	// Validate the liveness flags up front: Validate applies the
	// documented defaults first, so only explicitly bad values (e.g.
	// -heartbeat >= TTL/3) land here, as structured lease.ConfigError
	// values naming the offending field.
	lcfg := lease.Config{Dir: filepath.Join(o.dir, campaign.LeaseDir), TTL: o.ttl, Heartbeat: o.heartbeat}
	if err := lcfg.Validate(); err != nil {
		return err
	}
	cfg := campaign.Config{Seed: want.Seed, Replications: want.Replications, Context: ctx}
	opts := campaign.RemoteOptions{Dir: o.dir, Shards: want.Shards, Lease: lcfg}
	if o.unitDelay > 0 {
		opts.UnitStart = func(shard int, key string) { time.Sleep(o.unitDelay) }
	}

	if o.merge {
		return runMerge(w, cfg, opts, want, o.out)
	}
	rep, err := campaign.RemoteWorker(cfg, opts, want.Platforms)
	if rep != nil {
		writeReport(w, rep)
	}
	return err
}

// writeReport prints the worker's closing summary: its share of the
// campaign, every unit it quarantined, and a warning when its fleet view
// is incomplete.
func writeReport(w io.Writer, rep *campaign.RemoteReport) {
	fmt.Fprintf(w, "memworker %s: %d units across %d claims, %d fenced, drained=%v\n",
		rep.Owner, rep.Units, len(rep.Claimed), rep.Fenced, rep.Drained)
	for _, q := range rep.Quarantined {
		fmt.Fprintf(w, "memworker: quarantined: %s\n", q.Error)
	}
	if rep.ObsErrors > 0 {
		fmt.Fprintf(w, "memworker: warning: %d beacon/event writes failed; the fleet view of this worker is incomplete\n",
			rep.ObsErrors)
	}
}

// runMerge is the finalize path: wait for completion, merge every epoch
// of every shard, replay the sequential assembly, optionally write the
// artifact files.
func runMerge(w io.Writer, cfg campaign.Config, opts campaign.RemoteOptions, want campaign.Manifest, out string) error {
	res, err := campaign.RemoteMerge(cfg, opts, want.Platforms)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "memworker: merged campaign %s (%d platforms, seed %d)\n",
		opts.Dir, len(want.Platforms), want.Seed)
	if art := res.Artifacts; art != nil && art.Replications != nil {
		if err := art.Replications.Table().WriteText(w); err != nil {
			return err
		}
	}
	if out != "" {
		if err := res.Artifacts.Write(out); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote artifacts to %s\n", out)
	}
	return nil
}
