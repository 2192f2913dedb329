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
//	                                    # finalize: wait, merge, print Table II,
//	                                    # write every artifact paperfigs -out writes
//
// The first worker to touch the directory writes campaign.json pinning
// (seed, platforms, shards, replications); joining workers and the
// finalizer inherit every parameter they do not set, and explicitly
// conflicting flags are rejected with the exact disagreement.
// SIGINT/SIGTERM shuts down in two stages: the first signal stops at the
// next unit boundary and releases all held leases (successors claim them
// immediately, no TTL wait); a second signal exits right away with status
// 130 — completed units are already fsynced and the abandoned leases
// expire on their own. A unit that fails (or panics) on every attempt is
// quarantined: the worker journals everything else, lists the
// quarantined units in its closing output and exits with the quarantine
// error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"memcontention/internal/campaign"
	"memcontention/internal/checkpoint"
	"memcontention/internal/eval"
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
	fs.Uint64Var(&o.seed, "seed", 0, "measurement noise seed (default: the campaign's; 1 for a new campaign)")
	fs.StringVar(&o.platforms, "platforms", "", "comma-separated platform names (default: the campaign's; the full testbed for a new campaign)")
	fs.IntVar(&o.shards, "shard-count", 0, "number of shards (default: the campaign's; GOMAXPROCS for a new campaign)")
	fs.IntVar(&o.replications, "replications", 0, "Monte-Carlo replication sweep width (default: the campaign's; 1 for a new campaign)")
	fs.DurationVar(&o.ttl, "lease-ttl", 0, "lease time-to-live: how long after its last heartbeat a worker is presumed dead (default 15s)")
	fs.DurationVar(&o.heartbeat, "heartbeat", 0, "lease renewal interval (default TTL/5; must be < TTL/3)")
	fs.BoolVar(&o.merge, "merge", false, "finalize instead of working: wait for every unit, merge all shard journals, assemble artifacts")
	fs.StringVar(&o.out, "out", "", "with -merge: write every artifact into this directory")
	fs.DurationVar(&o.unitDelay, "unit-delay", 0, "test throttle: sleep this long before each unit (gives kill-based harnesses a window)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.dir == "" {
		return o, fmt.Errorf("-dir is required: the campaign directory is the rendezvous point")
	}
	if o.out != "" && !o.merge {
		return o, fmt.Errorf("-out needs -merge: a worker journals units, only the finalizer writes artifacts")
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return o, nil
}

// splitPlatforms parses the -platforms list ("" means the campaign's).
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

// run executes the worker (or finalizer) core; split from main so tests
// can drive the full logic with their own context and output sink.
func run(ctx context.Context, w io.Writer, o options) error {
	names := splitPlatforms(o.platforms)
	for _, name := range names {
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
	// Flags left unset are zero, and RemoteWorker and RemoteMerge take
	// every zero parameter from campaign.json (the campaign defaults when
	// the directory is new).
	cfg := campaign.Config{Seed: o.seed, Replications: o.replications, Context: ctx}
	opts := campaign.RemoteOptions{Dir: o.dir, Shards: o.shards, Lease: lcfg}
	if o.unitDelay > 0 {
		opts.UnitStart = func(shard int, key string) { time.Sleep(o.unitDelay) }
	}

	if o.merge {
		return runMerge(w, cfg, opts, names, o.out)
	}
	rep, err := campaign.RemoteWorker(cfg, opts, names)
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
		fmt.Fprintf(w, "memworker: warning: %d event writes failed; the fleet view of this worker is incomplete\n",
			rep.ObsErrors)
	}
}

// runMerge is the finalize path: wait for completion, merge every epoch
// of every shard, assemble the artifacts from the merged units, print
// Table II (and the replication summary), and optionally write every
// artifact file.
func runMerge(w io.Writer, cfg campaign.Config, opts campaign.RemoteOptions, names []string, out string) error {
	res, err := campaign.RemoteMerge(cfg, opts, names)
	if err != nil {
		return err
	}
	art := res.Artifacts
	fmt.Fprintf(w, "memworker: merged campaign %s (%d platforms, seed %d)\n",
		opts.Dir, len(art.Platforms), art.Seed)
	if err := eval.Table2(art.Platforms).WriteText(w); err != nil {
		return err
	}
	if art.Replications != nil {
		fmt.Fprintln(w)
		if err := art.Replications.Table().WriteText(w); err != nil {
			return err
		}
	}
	if out == "" {
		return nil
	}
	if err := art.Write(out); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "wrote artifacts to %s\n", out)
	return err
}
