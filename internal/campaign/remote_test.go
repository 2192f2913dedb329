package campaign

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memcontention/internal/checkpoint"
	"memcontention/internal/lease"
)

// remoteClock is a mutex-guarded manual clock shared by every process
// of an in-process remote-campaign test.
type remoteClock struct {
	mu sync.Mutex
	t  time.Time
}

func newRemoteClock() *remoteClock {
	return &remoteClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *remoteClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *remoteClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// tinySleep keeps heartbeat/poll loops from hot-spinning on fsyncs
// without slowing tests down.
func tinySleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	time.Sleep(time.Millisecond)
	return nil
}

// remoteLease is the fast liveness config every remote test uses: 1s
// TTL, 100ms heartbeat, no grace (exact staleness boundaries under the
// manual clock).
func remoteLease(clk *remoteClock) lease.Config {
	return lease.Config{TTL: time.Second, Heartbeat: 100 * time.Millisecond, Grace: -1, Clock: clk.Now}
}

func TestRemoteWorkerDrainsAndMergesByteIdentical(t *testing.T) {
	want := writeSeqBaseline(t, Config{Seed: 1})

	clk := newRemoteClock()
	dir := filepath.Join(t.TempDir(), "campaign")
	opts := RemoteOptions{Dir: dir, Shards: 4, Lease: remoteLease(clk), Sleep: tinySleep}
	rep, err := RemoteWorker(Config{Seed: 1}, opts, testNames)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drained || rep.Units == 0 || rep.Fenced != 0 {
		t.Fatalf("report %+v, want drained with units and no fencing", rep)
	}

	res, err := RemoteMerge(Config{Seed: 1}, opts, testNames)
	if err != nil {
		t.Fatal(err)
	}
	if res.Artifacts == nil {
		t.Fatal("remote merge produced no artifacts")
	}
	out := filepath.Join(t.TempDir(), "remote")
	if err := res.Artifacts.Write(out); err != nil {
		t.Fatal(err)
	}
	assertSameArtifacts(t, want, readArtifacts(t, out))

	// Drained workers release everything: no lease file survives.
	if left := leaseFiles(t, dir); len(left) != 0 {
		t.Fatalf("drained campaign left lease files: %v", left)
	}
}

func TestRemoteWorkersConcurrentNoDoubleCharge(t *testing.T) {
	want := writeSeqBaseline(t, Config{Seed: 1})

	clk := newRemoteClock()
	dir := filepath.Join(t.TempDir(), "campaign")
	units, err := pipelineUnits(Config{Seed: 1}, testNames)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 3
	reports := make([]*RemoteReport, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			opts := RemoteOptions{Dir: dir, Shards: 4, Lease: remoteLease(clk), Sleep: tinySleep}
			reports[w], errs[w] = RemoteWorker(Config{Seed: 1}, opts, testNames)
		}(w)
	}
	wg.Wait()
	total := 0
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !reports[w].Drained {
			t.Fatalf("worker %d did not observe the drain: %+v", w, reports[w])
		}
		total += reports[w].Units
	}
	// Leases serialise shard ownership, and Acquire is serialized within
	// a process, so workers sharing one process can never split-claim a
	// shard: every unit runs exactly once. (Between processes a split
	// claim may still run a unit twice until the loser's first
	// heartbeat, into distinct epoch journals the merge collapses.)
	if total != len(units) {
		t.Fatalf("workers executed %d units, campaign has %d", total, len(units))
	}

	res, err := RemoteMerge(Config{Seed: 1}, RemoteOptions{Dir: dir, Shards: 4, Lease: remoteLease(clk), Sleep: tinySleep}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "remote")
	if err := res.Artifacts.Write(out); err != nil {
		t.Fatal(err)
	}
	assertSameArtifacts(t, want, readArtifacts(t, out))
}

// TestRemoteZombieFencedStillWriting is the fencing proof: worker A
// stalls mid-shard (heartbeats frozen — the in-process stand-in for
// SIGSTOP), its lease expires, worker B takes the shard over under a
// higher epoch and drains the campaign. A then resumes, finishes its
// in-flight unit — a late append that must land in A's dead-epoch
// journal — and stops. The merge unions both epochs without conflict
// and the artifacts stay byte-identical to the sequential run.
func TestRemoteZombieFencedStillWriting(t *testing.T) {
	want := writeSeqBaseline(t, Config{Seed: 1})

	clk := newRemoteClock()
	dir := filepath.Join(t.TempDir(), "campaign")
	gate := make(chan struct{}) // closed once: unfreezes worker A
	firstUnit := make(chan string, 1)
	var unitCalls atomic.Int32
	var lateKey atomic.Value // the unit A runs after being deposed

	optsA := RemoteOptions{
		Dir: dir, Shards: 1, Lease: remoteLease(clk),
		// A's first sleep is its heartbeat goroutine's: it blocks on the
		// gate, so A's lease heartbeat stays frozen at acquisition time.
		Sleep: func(ctx context.Context, d time.Duration) error {
			<-gate
			return tinySleep(ctx, d)
		},
		UnitStart: func(shard int, key string) {
			if unitCalls.Add(1) == 2 {
				lateKey.Store(key)
				<-gate // stall before the second unit; it runs after takeover
			}
		},
		UnitDone: func(shard int, key string) {
			select {
			case firstUnit <- key:
			default:
			}
		},
	}

	aDone := make(chan struct{})
	var aRep *RemoteReport
	var aErr error
	go func() {
		defer close(aDone)
		aRep, aErr = RemoteWorker(Config{Seed: 1}, optsA, testNames)
	}()

	doneKey := <-firstUnit // A journaled its first unit and is now stalled
	clk.Advance(3 * time.Second)

	optsB := RemoteOptions{Dir: dir, Shards: 1, Lease: remoteLease(clk), Sleep: tinySleep}
	bRep, err := RemoteWorker(Config{Seed: 1}, optsB, testNames)
	if err != nil {
		t.Fatal(err)
	}
	if !bRep.Drained || len(bRep.Claimed) == 0 {
		t.Fatalf("takeover worker report %+v, want a drained claim", bRep)
	}

	close(gate) // resurrect the zombie
	select {
	case <-aDone:
	case <-time.After(30 * time.Second):
		t.Fatal("zombie worker never returned")
	}
	if aErr != nil {
		t.Fatalf("zombie worker: %v", aErr)
	}
	if aRep.Units < 2 {
		t.Fatalf("zombie executed %d units, want its first unit plus the in-flight one", aRep.Units)
	}

	// The late append is in A's dead epoch file (epoch 1) — and B,
	// which also completed that unit, has it in epoch 2: a duplicate
	// the merge must collapse, not reject.
	late, _ := lateKey.Load().(string)
	if late == "" || late == doneKey {
		t.Fatalf("late unit key %q, first unit %q: test hooks misfired", late, doneKey)
	}
	set, err := checkpoint.OpenShardSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertJournalHasKey(t, set.EpochShardPath(0, 1), late)
	assertJournalHasKey(t, set.EpochShardPath(0, 2), late)

	res, err := RemoteMerge(Config{Seed: 1}, optsB, testNames)
	if err != nil {
		t.Fatalf("merge with a zombie's late appends must stay conflict-free: %v", err)
	}
	out := filepath.Join(t.TempDir(), "remote")
	if err := res.Artifacts.Write(out); err != nil {
		t.Fatal(err)
	}
	assertSameArtifacts(t, want, readArtifacts(t, out))
}

// orphanShard plays a worker SIGKILLed mid-shard: it pins the campaign
// in dir, acquires the lease of u's home shard, journals u into that
// epoch and never releases — the lease is an orphan once clk passes the
// TTL. It returns the shard and the campaign's units.
func orphanShard(t *testing.T, dir string, clk *remoteClock, shards int) (int, []unit) {
	t.Helper()
	cfg := Config{Seed: 1}.withDefaults()
	if _, err := EnsureManifest(dir, Manifest{Seed: 1, Platforms: testNames, Shards: shards}); err != nil {
		t.Fatal(err)
	}
	units, err := pipelineUnits(cfg, testNames)
	if err != nil {
		t.Fatal(err)
	}
	shard := homeShard(units[0].Key, shards)
	lcfg := remoteLease(clk)
	lcfg.Dir = filepath.Join(dir, LeaseDir)
	mgr, err := lease.NewManager(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	held, err := mgr.Acquire(shard, 0)
	if err != nil {
		t.Fatal(err)
	}
	set, err := checkpoint.OpenShardSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := set.OpenEpochShard(shard, held.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	v, err := units[0].run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(units[0].Key, v); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return shard, units
}

// TestRemoteOrphanTakeover models a SIGKILLed worker: a lease acquired
// and never released, a partial epoch journal left behind. A fresh
// worker must wait out nothing (the TTL already elapsed on the shared
// clock), take the shard over at a higher epoch and finish the
// campaign with no manual cleanup.
func TestRemoteOrphanTakeover(t *testing.T) {
	clk := newRemoteClock()
	dir := filepath.Join(t.TempDir(), "campaign")
	cfg := Config{Seed: 1}.withDefaults()
	_, units := orphanShard(t, dir, clk, 1)

	clk.Advance(3 * time.Second)
	rep, err := RemoteWorker(cfg, RemoteOptions{Dir: dir, Shards: 1, Lease: remoteLease(clk), Sleep: tinySleep}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drained {
		t.Fatalf("successor did not drain: %+v", rep)
	}
	if rep.Units != len(units)-1 {
		t.Fatalf("successor executed %d units, want %d (the orphan's journaled unit must survive takeover)",
			rep.Units, len(units)-1)
	}
	set, err := checkpoint.OpenShardSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if max, err := set.MaxEpoch(0); err != nil || max < 2 {
		t.Fatalf("takeover epoch %d (%v), want >= 2", max, err)
	}
	if _, err := RemoteMerge(cfg, RemoteOptions{Dir: dir, Shards: 1, Lease: remoteLease(clk), Sleep: tinySleep}, testNames); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteCancelReleasesLeases proves the graceful half of the
// shutdown contract: a canceled worker stops at the next unit boundary
// and releases its leases, so a successor claims the shard immediately
// — no TTL wait.
func TestRemoteCancelReleasesLeases(t *testing.T) {
	clk := newRemoteClock()
	dir := filepath.Join(t.TempDir(), "campaign")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	opts := RemoteOptions{
		Dir: dir, Shards: 1, Lease: remoteLease(clk), Sleep: tinySleep,
		UnitDone: func(shard int, key string) { cancel() },
	}
	rep, err := RemoteWorker(Config{Seed: 1, Context: ctx}, opts, testNames)
	if !checkpoint.IsCanceled(err) {
		t.Fatalf("canceled worker returned %v, want a context cancellation", err)
	}
	if rep.Units != 1 || rep.Drained {
		t.Fatalf("canceled report %+v, want exactly the one unit that completed", rep)
	}
	if left := leaseFiles(t, dir); len(left) != 0 {
		t.Fatalf("canceled worker left lease files: %v", left)
	}

	// Successor claims immediately — same clock, no advance.
	rep2, err := RemoteWorker(Config{Seed: 1}, RemoteOptions{Dir: dir, Shards: 1, Lease: remoteLease(clk), Sleep: tinySleep}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Drained {
		t.Fatalf("successor did not drain: %+v", rep2)
	}
}

func TestEnsureManifestPinsParameters(t *testing.T) {
	dir := t.TempDir()
	want := Manifest{Seed: 1, Platforms: []string{"henri"}, Shards: 2, Replications: 0}
	if _, err := EnsureManifest(dir, want); err != nil {
		t.Fatal(err)
	}
	// Identical re-ensure is the normal join path.
	if got, err := EnsureManifest(dir, want); err != nil || !reflect.DeepEqual(got, mustLoad(t, dir)) {
		t.Fatalf("re-ensure: %+v, %v", got, err)
	}
	// Any field disagreement is a structured rejection.
	bad := want
	bad.Seed = 7
	var mm *ManifestMismatchError
	if _, err := EnsureManifest(dir, bad); !errors.As(err, &mm) || mm.Field != "seed" {
		t.Fatalf("seed mismatch returned %v, want ManifestMismatchError{Field: seed}", err)
	}
	bad = want
	bad.Shards = 9
	if _, err := EnsureManifest(dir, bad); !errors.As(err, &mm) || mm.Field != "shards" {
		t.Fatalf("shards mismatch returned %v, want ManifestMismatchError{Field: shards}", err)
	}

	// A missing manifest is os.ErrNotExist (join-or-create decisions);
	// a corrupt one is a loud error, never silently recreated.
	if _, err := LoadManifest(t.TempDir()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing manifest: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := EnsureManifest(dir, want); err == nil {
		t.Fatal("corrupt manifest must not be silently replaced")
	}
}

func TestRemoteMergeInheritsManifest(t *testing.T) {
	clk := newRemoteClock()
	dir := filepath.Join(t.TempDir(), "campaign")
	opts := RemoteOptions{Dir: dir, Shards: 2, Lease: remoteLease(clk), Sleep: tinySleep}
	if _, err := RemoteWorker(Config{Seed: 7}, opts, testNames); err != nil {
		t.Fatal(err)
	}

	// A bare finalize — zero seed, nil platform list, zero shard count —
	// inherits everything from campaign.json instead of pinning library
	// defaults against a campaign that used different values.
	res, err := RemoteMerge(Config{}, RemoteOptions{Dir: dir, Sleep: tinySleep}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Artifacts == nil || len(res.Artifacts.Platforms) != len(testNames) {
		t.Fatalf("inherited merge artifacts: %+v", res.Artifacts)
	}
	for i, r := range res.Artifacts.Platforms {
		if r.Platform != testNames[i] {
			t.Fatalf("platform %d = %s, want %s", i, r.Platform, testNames[i])
		}
	}

	// Explicit non-zero values are still pinned and checked.
	var mm *ManifestMismatchError
	if _, err := RemoteMerge(Config{Seed: 9}, RemoteOptions{Dir: dir, Sleep: tinySleep}, nil); !errors.As(err, &mm) || mm.Field != "seed" {
		t.Fatalf("conflicting seed: %v, want ManifestMismatchError{Field: seed}", err)
	}
	if _, err := RemoteMerge(Config{}, RemoteOptions{Dir: dir, Sleep: tinySleep}, []string{"dahu"}); !errors.As(err, &mm) || mm.Field != "platforms" {
		t.Fatalf("conflicting platforms: %v, want ManifestMismatchError{Field: platforms}", err)
	}
}

func TestRemoteWorkerRejectsBadLeaseConfig(t *testing.T) {
	lcfg := lease.Config{TTL: time.Second, Heartbeat: 400 * time.Millisecond} // >= TTL/3
	_, err := RemoteWorker(Config{Seed: 1}, RemoteOptions{Dir: t.TempDir(), Shards: 1, Lease: lcfg}, testNames)
	var cerr *lease.ConfigError
	if !errors.As(err, &cerr) || cerr.Field != "Heartbeat" {
		t.Fatalf("got %v, want lease.ConfigError{Field: Heartbeat}", err)
	}
}

func TestRemoteMergeReportsIncomplete(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // no workers will ever show up; the wait must bail out
	_, err := RemoteMerge(Config{Seed: 1, Context: ctx},
		RemoteOptions{Dir: dir, Shards: 2, Sleep: tinySleep}, testNames)
	var inc *RemoteIncompleteError
	if !errors.As(err, &inc) || len(inc.Missing) == 0 {
		t.Fatalf("got %v, want RemoteIncompleteError with missing units", err)
	}
}

// TestAssembleRejectsUndecodablePayload: a merged payload that does not
// decode into its unit's result fails the merge and names the unit; it
// is never assembled as a zero value.
func TestAssembleRejectsUndecodablePayload(t *testing.T) {
	units := mustUnits(t)
	entries := make([]checkpoint.Entry, len(units))
	for i, u := range units {
		entries[i] = checkpoint.Entry{Key: u.Key, Payload: []byte(`"a string payload"`)}
	}
	_, err := assemble(Config{Seed: 1}, testNames, units, entries)
	if err == nil || !strings.Contains(err.Error(), units[0].Key) {
		t.Fatalf("err = %v, want a decode error naming %s", err, units[0].Key)
	}
}

func mustLoad(t *testing.T, dir string) Manifest {
	t.Helper()
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func leaseFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, LeaseDir, "*.lease"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

func assertJournalHasKey(t *testing.T, path, key string) {
	t.Helper()
	entries, err := checkpoint.MergeShardFiles([]string{path})
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, e := range entries {
		if e.Key == key {
			return
		}
	}
	t.Fatalf("%s does not contain key %q", path, key)
}
