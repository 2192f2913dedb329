package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
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
	// A worker never writes artifacts, so -out alone would silently do
	// nothing.
	if _, err := parseFlags(flag.NewFlagSet("memworker", flag.ContinueOnError), []string{"-dir", "x", "-out", "results"}); err == nil {
		t.Fatal("-out without -merge must be rejected")
	}
	if o := parse(t, "-dir", "x", "-merge", "-out", "results"); !o.merge || o.out != "results" {
		t.Fatalf("-merge -out parsed as %+v", o)
	}
	// Unset campaign parameters stay zero: zero inherits campaign.json.
	o := parse(t, "-dir", "run", "-seed", "7", "-platforms", "henri, dahu", "-lease-ttl", "30s")
	if o.seed != 7 || o.shards != 0 || o.replications != 0 {
		t.Fatalf("seed %d, shards %d, replications %d; want 7, 0, 0", o.seed, o.shards, o.replications)
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

// goldenDir holds the 16 files `paperfigs -out <dir> -seed 1` writes.
const goldenDir = "../paperfigs/testdata/golden"

// TestWorkerThenMergeProducesArtifacts drives the full memworker flow
// in-process: one worker drains the seed-1 testbed campaign, then a bare
// -merge waits (a no-op, everything is done), merges and writes every
// artifact: the paper's 16 files byte for byte as paperfigs writes them,
// plus the network sweep and the DES cross-check.
func TestWorkerThenMergeProducesArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full testbed campaign")
	}
	dir := filepath.Join(t.TempDir(), "run")
	out := filepath.Join(t.TempDir(), "results")

	var buf bytes.Buffer
	if err := run(context.Background(), &buf, parse(t, "-dir", dir, "-shard-count", "2")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "drained=true") {
		t.Fatalf("worker epilogue missing drain: %q", buf.String())
	}

	buf.Reset()
	if err := run(context.Background(), &buf, parse(t, "-dir", dir, "-merge", "-out", out)); err != nil {
		t.Fatal(err)
	}
	table2, err := os.ReadFile(filepath.Join(goldenDir, "table2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), table2) {
		t.Errorf("-merge did not print Table II:\n%s", buf.String())
	}
	got := readDir(t, out)
	for _, name := range []string{"netbench.json", "crosscheck.json"} {
		if len(got[name]) == 0 {
			t.Errorf("-merge -out wrote no %s", name)
		}
		delete(got, name)
	}
	want := readDir(t, goldenDir)
	if len(want) != 16 || len(got) != len(want) {
		t.Fatalf("-merge -out wrote %d paper files, %s holds %d, want 16", len(got), goldenDir, len(want))
	}
	for name, data := range want {
		if !bytes.Equal(data, got[name]) {
			t.Errorf("%s differs from the paperfigs golden file", name)
		}
	}
}

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
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

// TestManifestWantInheritsExisting: flags left unset take the existing
// campaign.json's values, an explicit matching flag is accepted and an
// explicit conflicting one is rejected with the exact field. The merges
// run on a canceled context, so each one stops at its first completeness
// check, after the manifest rendezvous, and reports what it waits for.
func TestManifestWantInheritsExisting(t *testing.T) {
	dir := t.TempDir()
	man := campaign.Manifest{Seed: 7, Platforms: []string{"dahu"}, Shards: 3}
	if _, err := campaign.EnsureManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The missing units are the manifest's: dahu's evaluation at seed 7,
	// its ping-pong sweep and its cross-check. Without the inherited
	// shard count the merge would fail on a shards mismatch instead.
	for _, args := range [][]string{{"-merge"}, {"-merge", "-seed", "7"}} {
		err := run(ctx, &bytes.Buffer{}, parse(t, append([]string{"-dir", dir}, args...)...))
		var inc *campaign.RemoteIncompleteError
		if !errors.As(err, &inc) {
			t.Fatalf("%v: got %v, want RemoteIncompleteError", args, err)
		}
		if len(inc.Missing) != 3 || !strings.Contains(inc.Missing[0], "|dahu|") || !strings.Contains(inc.Missing[0], "|seed=7|") {
			t.Fatalf("%v: missing units %q, want dahu's three at seed 7", args, inc.Missing)
		}
	}
	if have, err := campaign.LoadManifest(dir); err != nil || !reflect.DeepEqual(have, man) {
		t.Fatalf("manifest now %+v (%v), want %+v unchanged", have, err, man)
	}
	err := run(ctx, &bytes.Buffer{}, parse(t, "-dir", dir, "-merge", "-seed", "99"))
	var mm *campaign.ManifestMismatchError
	if !errors.As(err, &mm) || mm.Field != "seed" {
		t.Fatalf("got %v, want ManifestMismatchError{Field: seed}", err)
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
