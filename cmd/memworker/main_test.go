package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"memcontention/internal/campaign"
	"memcontention/internal/lease"
)

func parse(t *testing.T, args ...string) options {
	t.Helper()
	fs := flag.NewFlagSet("memworker", flag.ContinueOnError)
	o, err := parseFlags(fs, args)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestParseFlags(t *testing.T) {
	if _, err := parseFlags(flag.NewFlagSet("memworker", flag.ContinueOnError), nil); err == nil {
		t.Fatal("missing -dir must be rejected")
	}
	if _, err := parseFlags(flag.NewFlagSet("memworker", flag.ContinueOnError), []string{"-dir", "x", "stray"}); err == nil {
		t.Fatal("stray positional arguments must be rejected")
	}
	o := parse(t, "-dir", "run", "-seed", "7", "-platforms", "henri, dahu", "-lease-ttl", "30s")
	if !o.set["seed"] || !o.set["platforms"] || o.set["shard-count"] {
		t.Fatalf("explicit-flag tracking wrong: %v", o.set)
	}
	if got := splitPlatforms(o.platforms); len(got) != 2 || got[0] != "henri" || got[1] != "dahu" {
		t.Fatalf("splitPlatforms = %v", got)
	}
	if o.ttl != 30*time.Second {
		t.Fatalf("ttl = %v", o.ttl)
	}
}

func TestRunRejectsBadLeaseFlags(t *testing.T) {
	o := parse(t, "-dir", t.TempDir(), "-lease-ttl", "1s", "-heartbeat", "500ms")
	err := run(context.Background(), &bytes.Buffer{}, o)
	var cerr *lease.ConfigError
	if !errors.As(err, &cerr) || cerr.Field != "Heartbeat" {
		t.Fatalf("got %v, want lease.ConfigError{Field: Heartbeat}", err)
	}
}

func TestRunRejectsUnknownPlatform(t *testing.T) {
	o := parse(t, "-dir", t.TempDir(), "-platforms", "not-a-platform")
	if err := run(context.Background(), &bytes.Buffer{}, o); err == nil {
		t.Fatal("unknown platform must be rejected before any lease is taken")
	}
}

// TestWorkerThenMergeProducesArtifacts drives the full memworker flow
// in-process: one worker drains a small campaign, then -merge waits (a
// no-op, everything is done), merges and writes the artifact files.
func TestWorkerThenMergeProducesArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full small campaign")
	}
	dir := filepath.Join(t.TempDir(), "run")
	out := filepath.Join(t.TempDir(), "results")

	var buf bytes.Buffer
	o := parse(t, "-dir", dir, "-platforms", "henri,henri-subnuma", "-shard-count", "2")
	if err := run(context.Background(), &buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "drained=true") {
		t.Fatalf("worker epilogue missing drain: %q", buf.String())
	}

	// Joining flags come from the manifest: a bare -merge needs nothing
	// beyond -dir.
	buf.Reset()
	om := parse(t, "-dir", dir, "-merge", "-out", out)
	if err := run(context.Background(), &buf, om); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table2.txt", "table2.json", "netbench.json", "crosscheck.json"} {
		if _, err := os.Stat(filepath.Join(out, name)); err != nil {
			t.Errorf("artifact %s: %v", name, err)
		}
	}

	// A conflicting explicit flag is rejected with the exact field.
	oc := parse(t, "-dir", dir, "-seed", "99")
	err := run(context.Background(), &bytes.Buffer{}, oc)
	var mm *campaign.ManifestMismatchError
	if !errors.As(err, &mm) || mm.Field != "seed" {
		t.Fatalf("got %v, want ManifestMismatchError{Field: seed}", err)
	}
}

// TestCancelExitsGracefully: a canceled context (the first SIGINT under
// checkpoint.SignalContext) surfaces as a cancellation error — mapped
// to exit status 130 by checkpoint.Report — with all leases released.
func TestCancelExitsGracefully(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := parse(t, "-dir", dir, "-platforms", "henri")
	err := run(ctx, &bytes.Buffer{}, o)
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("got %v, want a context cancellation", err)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, campaign.LeaseDir, "*.lease")); len(matches) != 0 {
		t.Fatalf("canceled worker left lease files: %v", matches)
	}
}

func TestManifestWantInheritsExisting(t *testing.T) {
	dir := t.TempDir()
	if _, err := campaign.EnsureManifest(dir, campaign.Manifest{
		Seed: 7, Platforms: []string{"dahu"}, Shards: 3, Replications: 0,
	}); err != nil {
		t.Fatal(err)
	}
	// A bare join inherits everything.
	o := parse(t, "-dir", dir)
	want, err := manifestWant(o)
	if err != nil {
		t.Fatal(err)
	}
	if want.Seed != 7 || want.Shards != 3 || len(want.Platforms) != 1 || want.Platforms[0] != "dahu" {
		t.Fatalf("inherited manifest = %+v", want)
	}
	// An explicit matching flag is fine; only its own field is pinned.
	o = parse(t, "-dir", dir, "-seed", "7")
	if want, err = manifestWant(o); err != nil || want.Seed != 7 || want.Shards != 3 {
		t.Fatalf("explicit matching seed: %+v, %v", want, err)
	}
}

// TestWriteReportListsQuarantine: the closing output names every unit
// the worker gave up on, so an operator sees the poison without reading
// the event journal.
func TestWriteReportListsQuarantine(t *testing.T) {
	var buf bytes.Buffer
	writeReport(&buf, &campaign.RemoteReport{
		Owner: lease.Owner{Host: "h", PID: 1, Token: "t"},
		Units: 3,
		Quarantined: []campaign.QuarantineRecord{
			{Key: "unit|netbench|henri", Shard: 1, Attempts: 3, Error: "campaign: unit unit|netbench|henri (shard 1) failed after 3 attempts: boom"},
		},
	})
	want := "memworker h/1/t: 3 units across 0 claims, 0 fenced, drained=false\n" +
		"memworker: quarantined: campaign: unit unit|netbench|henri (shard 1) failed after 3 attempts: boom\n"
	if buf.String() != want {
		t.Fatalf("closing output:\n%q\nwant:\n%q", buf.String(), want)
	}
}
