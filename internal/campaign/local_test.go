package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memcontention/internal/checkpoint"
	"memcontention/internal/export"
	"memcontention/internal/lease"
	"memcontention/internal/obs"
)

// writeSeqBaseline runs the sequential pipeline and returns its artifact
// bytes — the reference every sharded run must reproduce exactly.
func writeSeqBaseline(t *testing.T, cfg Config) map[string][]byte {
	t.Helper()
	art, err := Pipeline(cfg, testNames)
	if err != nil {
		t.Fatal(err)
	}
	return writeArtifacts(t, art)
}

func writeArtifacts(t *testing.T, art *Artifacts) map[string][]byte {
	t.Helper()
	if art == nil {
		t.Fatal("campaign produced no artifacts")
	}
	dir := filepath.Join(t.TempDir(), "artifacts")
	if err := art.Write(dir); err != nil {
		t.Fatal(err)
	}
	return readArtifacts(t, dir)
}

// assertSameArtifacts compares two artifact sets byte for byte.
func assertSameArtifacts(t *testing.T, want, got map[string][]byte) {
	t.Helper()
	if len(want) != len(got) || len(want) == 0 {
		t.Fatalf("artifact sets differ: %d vs %d files", len(want), len(got))
	}
	for name, w := range want {
		if !bytes.Equal(w, got[name]) {
			t.Errorf("artifact %s differs from the sequential baseline", name)
		}
	}
}

// localOpts is the in-process test setup: a fresh campaign directory,
// the manual-clock lease config and no real sleeps.
func localOpts(t *testing.T, clk *remoteClock) RemoteOptions {
	t.Helper()
	return RemoteOptions{Dir: filepath.Join(t.TempDir(), "campaign"), Lease: remoteLease(clk), Sleep: tinySleep}
}

// executed sums the units the workers of an in-process run executed.
func executed(res *ShardResult) int {
	n := 0
	for _, r := range res.Workers {
		if r != nil {
			n += r.Units
		}
	}
	return n
}

// poisonHook panics in every attempt of key: the panic must be charged
// to the attempt, never kill the worker.
func poisonHook(key string) func(string, int) error {
	return func(k string, _ int) error {
		if k == key {
			panic("poison unit")
		}
		return nil
	}
}

// runLocal runs an in-process campaign that must succeed.
func runLocal(t *testing.T, cfg Config, opts RemoteOptions) *ShardResult {
	t.Helper()
	res, err := RunLocal(cfg, opts, testNames)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertSequential checks a merged run against the sequential bytes.
func assertSequential(t *testing.T, res *ShardResult) {
	t.Helper()
	assertSameArtifacts(t, writeSeqBaseline(t, Config{Seed: 1}), writeArtifacts(t, res.Artifacts))
}

func TestShardedPipelineByteIdenticalToSequential(t *testing.T) {
	opts := localOpts(t, newRemoteClock())
	res := runLocal(t, Config{Seed: 1, Workers: 4}, opts)
	assertSequential(t, res)
	// Exactly once: four workers in one process split the units, and
	// none runs twice.
	if n := len(mustUnits(t)); len(res.Workers) != 4 || executed(res) != n {
		t.Fatalf("%d workers executed %d units, campaign has %d", len(res.Workers), executed(res), n)
	}
	if man := mustLoad(t, opts.Dir); man.Shards != 4 {
		t.Fatalf("fresh directory pinned %d shards, want one per worker", man.Shards)
	}
	if data, err := os.ReadFile(filepath.Join(opts.Dir, QuarantineFile)); err != nil || len(data) != 0 {
		t.Fatalf("clean run quarantine.jsonl = %q (%v), want an empty file", data, err)
	}
}

// TestShardedPipelineSurvivesWorkerKills: a worker killed mid-shard
// leaves its lease held and one unit journaled. The in-process campaign
// takes the shard over once the lease is stale, keeps the dead worker's
// unit, and still reproduces the sequential bytes.
func TestShardedPipelineSurvivesWorkerKills(t *testing.T) {
	clk := newRemoteClock()
	opts := localOpts(t, clk)
	shard, units := orphanShard(t, opts.Dir, clk, 2)
	clk.Advance(3 * time.Second)
	res := runLocal(t, Config{Seed: 1, Workers: 3}, opts)
	assertSequential(t, res)
	if len(res.Workers) != 2 {
		t.Fatalf("%d workers started over 2 shards, want one per shard", len(res.Workers))
	}
	if got := executed(res); got != len(units)-1 {
		t.Fatalf("workers executed %d units, want %d (the dead worker's unit survives)", got, len(units)-1)
	}
	set, err := checkpoint.OpenShardSet(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if max, err := set.MaxEpoch(shard); err != nil || max < 2 {
		t.Fatalf("orphaned shard %d at epoch %d (%v), want a takeover epoch >= 2", shard, max, err)
	}
}

func TestShardedPipelineTransientFaultRetries(t *testing.T) {
	// Every unit fails its first attempt — evaluations by panicking, the
	// others with an error — and the retry budget absorbs both.
	var attempts atomic.Int32
	opts := localOpts(t, newRemoteClock())
	opts.faultHook = func(key string, attempt int) error {
		attempts.Add(1)
		switch {
		case attempt > 1:
			return nil
		case strings.HasPrefix(key, "eval|"):
			panic("transient panic injected")
		}
		return errors.New("transient fault injected")
	}
	assertSequential(t, runLocal(t, Config{Seed: 1, Workers: 4}, opts))
	if n := len(mustUnits(t)); int(attempts.Load()) != 2*n {
		t.Fatalf("%d attempts for %d units, want one fault and one retry each", attempts.Load(), n)
	}
}

func TestShardedPipelinePoisonUnitQuarantined(t *testing.T) {
	poison := "unit|netbench|" + testNames[0]
	opts := localOpts(t, newRemoteClock())
	opts.MaxAttempts = 2
	opts.faultHook = poisonHook(poison)
	res, err := RunLocal(Config{Seed: 1, Workers: 4}, opts, testNames)
	var qerr *QuarantineError
	if !errors.As(err, &qerr) || !errors.Is(err, ErrQuarantined) || res.Artifacts != nil {
		t.Fatalf("err = %v (artifacts %v), want an unmerged *QuarantineError wrapping ErrQuarantined", err, res.Artifacts)
	}
	want := QuarantineRecord{Key: poison, Shard: homeShard(poison, 4), Attempts: 2}
	if len(qerr.Records) != 1 || qerr.Records[0].Key != want.Key || qerr.Records[0].Shard != want.Shard ||
		qerr.Records[0].Attempts != want.Attempts || !strings.Contains(qerr.Records[0].Error, "panicked: poison unit") {
		t.Fatalf("quarantine records = %+v, want only %+v with its cause", qerr.Records, want)
	}
	// The report is durable, structured and re-readable — never silent.
	if disk, err := ReadQuarantine(opts.Dir); err != nil || len(disk) != 1 || disk[0] != qerr.Records[0] {
		t.Fatalf("quarantine.jsonl = %+v (%v), want %+v", disk, err, qerr.Records)
	}
	// Every healthy unit still completed despite the poison one.
	set, err := checkpoint.OpenShardSet(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, missing, err := mergeSet(set, mustUnits(t)); err != nil || len(missing) != 1 || missing[0] != poison {
		t.Fatalf("unjournaled units %v (%v), want only the poison unit", missing, err)
	}

	// Poison cleared: the same directory resumes and runs just that unit.
	opts.faultHook = nil
	res = runLocal(t, Config{Seed: 1, Workers: 4}, opts)
	assertSequential(t, res)
	if got := executed(res); got != 1 {
		t.Fatalf("recovery executed %d units, want only the formerly poisoned one", got)
	}
}

func TestShardedPipelineKillAndResumeByteIdentical(t *testing.T) {
	// Cancel the campaign after 3 completed units — a whole-process
	// kill at a unit boundary.
	opts := localOpts(t, newRemoteClock())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed atomic.Int32
	first := opts
	first.UnitDone = func(int, string) {
		if completed.Add(1) == 3 {
			cancel()
		}
	}
	res, err := RunLocal(Config{Seed: 1, Workers: 4, Context: ctx}, first, testNames)
	if !checkpoint.IsCanceled(err) || res.Artifacts != nil || executed(res) < 3 {
		t.Fatalf("interrupted run: err = %v, %d units executed; want a cancellation after 3", err, executed(res))
	}
	if left := leaseFiles(t, opts.Dir); len(left) != 0 {
		t.Fatalf("canceled workers left lease files: %v", left)
	}
	// A cancellation stops at a unit boundary: every shard journal it
	// leaves decodes whole, with nothing to recover.
	for path, data := range shardImages(t, opts.Dir) {
		if res := checkpoint.Decode(data); res.Valid != int64(len(data)) || res.Dropped != 0 {
			t.Fatalf("%s: %d of %d bytes valid, %d lines dropped after a clean interruption", path, res.Valid, len(data), res.Dropped)
		}
	}

	// Resume with a different worker count: the manifest keeps the
	// shard count, completed units are journal hits, and the merge
	// reproduces the sequential bytes.
	res2 := runLocal(t, Config{Seed: 1, Workers: 2}, opts)
	assertSequential(t, res2)
	if shards := mustLoad(t, opts.Dir).Shards; shards != 4 {
		t.Fatalf("resume re-pinned the manifest to %d shards, want 4", shards)
	}
	if got, n := executed(res)+executed(res2), len(mustUnits(t)); got != n {
		t.Fatalf("interrupted + resumed runs executed %d units, campaign has %d", got, n)
	}
	// Reusing the directory for a different campaign is refused.
	var mm *ManifestMismatchError
	if _, err := RunLocal(Config{Seed: 2, Workers: 2}, opts, testNames); !errors.As(err, &mm) || mm.Field != "seed" {
		t.Fatalf("different seed on a reused directory: %v, want ManifestMismatchError{Field: seed}", err)
	}
}

// TestShardedJournalHoldsOnlyUnits: the campaign journals whole units
// and nothing inside them, so the union of its shard journals holds
// exactly one record per pipeline unit.
func TestShardedJournalHoldsOnlyUnits(t *testing.T) {
	cfg := Config{Seed: 1, Workers: 2, Replications: 2}
	opts := localOpts(t, newRemoteClock())
	runLocal(t, cfg, opts)
	paths, err := checkpoint.ShardPaths(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := checkpoint.MergeShardFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Key)
	}
	units, err := pipelineUnits(cfg.withDefaults(), testNames)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, u := range units {
		want = append(want, u.Key)
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("shard journal keys:\n%s\nwant the pipeline's units:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if _, err := os.Stat(filepath.Join(opts.Dir, "merged.ckpt")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the merge left a merged.ckpt (%v); it keeps the merge in memory", err)
	}
}

func TestShardedEvaluateReplicationsMatchSequential(t *testing.T) {
	cfg := Config{Seed: 1, Replications: 3}
	want, err := Replicate(cfg, testNames, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 6
	res := runLocal(t, cfg, localOpts(t, newRemoteClock()))
	wj, err := export.MarshalIndent(want)
	if err != nil {
		t.Fatal(err)
	}
	gj, err := export.MarshalIndent(res.Artifacts.Replications)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wj, gj) || want.Replications != 3 {
		t.Fatalf("sharded replication summary differs:\n%s\nvs sequential:\n%s", gj, wj)
	}
}

// TestShardedCampaignMetrics: an in-process campaign reports through the
// lease and journal instruments its workers share.
func TestShardedCampaignMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	runLocal(t, Config{Seed: 1, Workers: 2, Registry: reg}, localOpts(t, newRemoteClock()))
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"memcontention_lease_claims_total", "memcontention_lease_held 0", "memcontention_checkpoint_entries_written_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics output missing %s", want)
		}
	}
}

// TestShardedPipelineFleetPlane: every in-process worker joins the
// fleet plane like a memworker process — its own event journal — so
// memtop reads the directory during and after the run.
func TestShardedPipelineFleetPlane(t *testing.T) {
	clk := newRemoteClock()
	opts := localOpts(t, clk)
	opts.Lease.Owner = lease.Owner{Host: "test", PID: 1, Token: "sup-test"}
	runLocal(t, Config{Seed: 1, Workers: 4}, opts)
	n := len(mustUnits(t))
	rep, err := CollectFleet(FleetOptions{Dir: opts.Dir, TTL: time.Second, Grace: -1, Clock: clk.Now})
	if err != nil || rep.Units != n || rep.Done != n || len(rep.Workers) != 4 {
		t.Fatalf("fleet report %+v (%v), want %d units done by 4 workers", rep, err, n)
	}
	units := 0
	for i, w := range rep.Workers {
		if w.Worker != fmt.Sprintf("sup-test-%d", i) || w.State != WorkerDrained {
			t.Fatalf("worker %d: %+v, want sup-test-%d drained", i, w, i)
		}
		units += w.Units
	}
	counts := map[EventType]int{}
	for _, c := range rep.Events {
		counts[c.Type] = c.Count
	}
	if units != n || counts[EventWorkerJoin] != 4 || counts[EventWorkerDrain] != 4 {
		t.Fatalf("unit-done events count %d of %d units; lifecycle events %v", units, n, counts)
	}
}

// TestShardedPipelineFleetPlaneQuarantine: no worker can drain while the
// poison unit is pending for it, so each one gives up on it exactly once
// and says so in its event journal and drain detail; memtop counts the
// unit as quarantined.
func TestShardedPipelineFleetPlaneQuarantine(t *testing.T) {
	clk := newRemoteClock()
	poison := "unit|netbench|" + testNames[0]
	opts := localOpts(t, clk)
	opts.MaxAttempts = 2
	opts.faultHook = poisonHook(poison)
	if _, err := RunLocal(Config{Seed: 1, Workers: 4}, opts, testNames); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("err = %v, want quarantine", err)
	}
	events, err := ReadEvents(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	quar, drains := 0, 0
	for _, e := range events {
		switch {
		case e.Type == EventUnitQuarantine && e.Key == poison && e.Shard == homeShard(poison, 4):
			quar++
		case e.Type == EventWorkerDrain && strings.Contains(e.Detail, "1 units quarantined"):
			drains++
		}
	}
	if quar != 4 || drains != 4 {
		t.Fatalf("%d quarantine and %d drain events for %s, want one of each per worker", quar, drains, poison)
	}
	rep, err := CollectFleet(FleetOptions{Dir: opts.Dir, TTL: time.Second, Grace: -1, Clock: clk.Now})
	if err != nil || rep.Quarantined != 1 || rep.Pending != 0 || rep.Done != rep.Units-1 {
		t.Fatalf("fleet report after quarantine: %+v (%v)", rep, err)
	}
}

// TestShardedPipelineBeaconDeterministic runs the same single-worker
// campaign twice under one manual clock and identity and compares the
// bytes of the worker's event journal, the only record it writes about
// itself (the name predates the journal taking over from the status
// beacon). With several workers, who claims which shard is up to the
// scheduler.
func TestShardedPipelineBeaconDeterministic(t *testing.T) {
	var files [2][]byte
	for i := range files {
		opts := localOpts(t, newRemoteClock())
		opts.Shards = 4
		opts.Lease.Owner = lease.Owner{Host: "test", PID: 1, Token: "sup"}
		runLocal(t, Config{Seed: 1, Workers: 1}, opts)
		data, err := os.ReadFile(filepath.Join(opts.Dir, EventsDir, "sup-0.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("event journal differs across identical runs:\n%s\n%s", files[0], files[1])
	}
}

func mustUnits(t *testing.T) []unit {
	t.Helper()
	units, err := pipelineUnits(Config{Seed: 1}.withDefaults(), testNames)
	if err != nil {
		t.Fatal(err)
	}
	return units
}

func TestHomeShardStableAndInRange(t *testing.T) {
	keys := []string{"eval|a", "eval|b", "unit|netbench|henri", "xcheck|henri"}
	for _, k := range keys {
		s := homeShard(k, 8)
		if s < 0 || s >= 8 {
			t.Fatalf("homeShard(%q, 8) = %d", k, s)
		}
		if s != homeShard(k, 8) {
			t.Fatalf("homeShard(%q) not deterministic", k)
		}
	}
	if homeShard("anything", 1) != 0 {
		t.Fatal("single shard must own every unit")
	}
}

func TestReadQuarantineMissingAndMalformed(t *testing.T) {
	dir := t.TempDir()
	recs, err := ReadQuarantine(dir)
	if err != nil || recs != nil {
		t.Fatalf("missing quarantine file: recs=%v err=%v", recs, err)
	}
	path := filepath.Join(dir, QuarantineFile)
	if err := os.WriteFile(path, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadQuarantine(dir); err == nil {
		t.Fatal("malformed quarantine line accepted")
	}
}
