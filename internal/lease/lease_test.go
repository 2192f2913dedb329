package lease

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// manualClock is a test clock advanced explicitly; safe for concurrent
// readers.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Unix(1_000_000, 0)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testConfig(t *testing.T, dir string, clock *manualClock, token string) Config {
	t.Helper()
	return Config{
		Dir:       dir,
		TTL:       time.Second,
		Heartbeat: 100 * time.Millisecond,
		Grace:     -1, // no grace: staleness boundaries are exact in tests
		Clock:     clock.Now,
		Owner:     Owner{Host: "test", PID: 1, Token: token},
	}
}

func mustManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	l := Lease{Shard: 3, Epoch: 7, Owner: Owner{Host: "h", PID: 42, Token: "deadbeef"}, HeartbeatUnixNano: 123456789}
	img, err := Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	if got != l {
		t.Fatalf("round trip changed the lease: %+v != %+v", got, l)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good, err := Encode(Lease{Shard: 0, Epoch: 1, Owner: Owner{Token: "t"}, HeartbeatUnixNano: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          nil,
		"torn":           good[:len(good)-3],
		"no-newline":     good[:len(good)-1],
		"garbage":        []byte("not a lease at all"),
		"bad-crc":        append([]byte("00000000"), good[8:]...),
		"trailing":       append(append([]byte{}, good[:len(good)-1]...), []byte(" extra\n")...),
		"double-record":  append(append([]byte{}, good...), good...),
		"unknown-fields": []byte("00000000 {\"shard\":0,\"bogus\":1}\n"),
	}
	for name, data := range cases {
		if _, err := Decode(data); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: Decode = %v, want ErrInvalid", name, err)
		}
	}
}

func TestDecodeRejectsWildFields(t *testing.T) {
	for name, l := range map[string]Lease{
		"epoch-zero":     {Shard: 0, Epoch: 0, Owner: Owner{Token: "t"}},
		"negative-shard": {Shard: -1, Epoch: 1, Owner: Owner{Token: "t"}},
		"empty-token":    {Shard: 0, Epoch: 1},
	} {
		if _, err := Encode(l); err == nil {
			t.Errorf("%s: Encode accepted an invalid lease", name)
		}
		// The same invalid record hand-framed must fail Decode too.
		rec := fmt.Sprintf(`{"shard":%d,"epoch":%d,"owner":{"host":"","pid":0,"token":%q},"heartbeat_unix_nano":0}`,
			l.Shard, l.Epoch, l.Owner.Token)
		img := frame(t, rec)
		if _, err := Decode(img); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: Decode = %v, want ErrInvalid", name, err)
		}
	}
}

// frame wraps a raw JSON record in valid CRC framing, so tests can hand
// the decoder records Encode itself refuses to produce.
func frame(t *testing.T, rec string) []byte {
	t.Helper()
	return []byte(fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(rec)), rec))
}

func TestConfigValidation(t *testing.T) {
	base := Config{Dir: "d"}
	if err := base.Validate(); err != nil {
		t.Fatalf("zero-value config (with Dir) must validate: %v", err)
	}
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"no-dir", Config{}, "Dir"},
		{"negative-ttl", Config{Dir: "d", TTL: -time.Second}, "TTL"},
		{"negative-heartbeat", Config{Dir: "d", TTL: time.Second, Heartbeat: -time.Millisecond}, "Heartbeat"},
		{"heartbeat-too-long", Config{Dir: "d", TTL: time.Second, Heartbeat: 400 * time.Millisecond}, "Heartbeat"},
		{"heartbeat-equals-third", Config{Dir: "d", TTL: 3 * time.Second, Heartbeat: time.Second}, "Heartbeat"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: Validate = %v, want *ConfigError", tc.name, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("%s: rejected field %q, want %q", tc.name, ce.Field, tc.field)
		}
	}
}

func TestAcquireRenewRelease(t *testing.T) {
	clock := newManualClock()
	dir := t.TempDir()
	m := mustManager(t, testConfig(t, dir, clock, "owner-a"))

	h, err := m.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Epoch() != 1 {
		t.Fatalf("first epoch = %d, want 1", h.Epoch())
	}
	if _, state, _ := m.Inspect(0); state != StateLive {
		t.Fatalf("state after acquire = %s, want live", state)
	}
	clock.Advance(500 * time.Millisecond)
	if err := h.Renew(); err != nil {
		t.Fatal(err)
	}
	// The renewal reset the staleness window.
	clock.Advance(900 * time.Millisecond)
	if _, state, _ := m.Inspect(0); state != StateLive {
		t.Fatalf("state within TTL of renewal = %s, want live", state)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	if _, state, _ := m.Inspect(0); state != StateFree {
		t.Fatalf("state after release = %s, want free", state)
	}
	// Released shard is immediately acquirable, at a bumped epoch.
	h2, err := m.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Epoch() <= h.Epoch() {
		t.Fatalf("re-acquired epoch %d not above released epoch %d", h2.Epoch(), h.Epoch())
	}
}

func TestLiveLeaseRefusesOtherOwners(t *testing.T) {
	clock := newManualClock()
	dir := t.TempDir()
	a := mustManager(t, testConfig(t, dir, clock, "owner-a"))
	b := mustManager(t, testConfig(t, dir, clock, "owner-b"))

	if _, err := a.Acquire(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Acquire(0, 0); !errors.Is(err, ErrHeld) {
		t.Fatalf("Acquire on a live foreign lease = %v, want ErrHeld", err)
	}
}

func TestStaleTakeoverAndFencing(t *testing.T) {
	clock := newManualClock()
	dir := t.TempDir()
	a := mustManager(t, testConfig(t, dir, clock, "owner-a"))
	b := mustManager(t, testConfig(t, dir, clock, "owner-b"))

	ha, err := a.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Owner A stops heartbeating; past TTL (+grace 0) it is stale.
	clock.Advance(1100 * time.Millisecond)
	if _, state, _ := b.Inspect(0); state != StateStale {
		t.Fatalf("state past TTL = %s, want stale", state)
	}
	hb, err := b.Acquire(0, 0)
	if err != nil {
		t.Fatalf("takeover of a stale lease failed: %v", err)
	}
	if hb.Epoch() != ha.Epoch()+1 {
		t.Fatalf("takeover epoch = %d, want %d", hb.Epoch(), ha.Epoch()+1)
	}
	// The zombie resumes and tries to renew: fenced, permanently.
	if err := ha.Renew(); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie Renew = %v, want ErrFenced", err)
	}
	if !ha.Fenced() {
		t.Fatal("zombie not marked fenced")
	}
	if err := ha.Renew(); !errors.Is(err, ErrFenced) {
		t.Fatal("fencing must be sticky")
	}
	// The zombie's release must not disturb the new owner's lease.
	if err := ha.Release(); err != nil {
		t.Fatal(err)
	}
	if l, state, _ := b.Inspect(0); state != StateLive || l.Owner.Token != "owner-b" {
		t.Fatalf("new owner's lease disturbed by zombie release: state=%s owner=%s", state, l.Owner.Token)
	}
	// The rightful owner keeps renewing fine.
	if err := hb.Renew(); err != nil {
		t.Fatal(err)
	}
}

// TestZombieClobberRecovery: the deposed owner's in-flight renewal can
// overwrite the new owner's lease file (read-check-write is not atomic
// across processes). Epoch-ordered renewal must recover: the rightful
// owner's next Renew sees the lower epoch and re-asserts, the zombie's
// next Renew sees the higher epoch and fences.
func TestZombieClobberRecovery(t *testing.T) {
	clock := newManualClock()
	dir := t.TempDir()
	a := mustManager(t, testConfig(t, dir, clock, "owner-a"))
	b := mustManager(t, testConfig(t, dir, clock, "owner-b"))

	ha, err := a.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(1100 * time.Millisecond)
	hb, err := b.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the clobber: write A's (lower-epoch) record over B's.
	img, err := Encode(Lease{Shard: 0, Epoch: ha.Epoch(), Owner: a.Owner(), HeartbeatUnixNano: clock.Now().UnixNano()})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(a.Path(0), img, 0o644); err != nil { // deliberate raw clobber
		t.Fatal(err)
	}
	// B's renew sees a lower epoch and re-asserts rather than fencing.
	if err := hb.Renew(); err != nil {
		t.Fatalf("rightful owner fenced by a stale clobber: %v", err)
	}
	if l, _, _ := b.Inspect(0); l.Epoch != hb.Epoch() {
		t.Fatalf("lease epoch after re-assert = %d, want %d", l.Epoch, hb.Epoch())
	}
	// A's renew now sees the higher epoch and fences.
	if err := ha.Renew(); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie Renew after clobber = %v, want ErrFenced", err)
	}
}

// TestSameHostDeadOwnerIsStale: a lease with a fresh heartbeat whose
// owner is a process of this host that has exited is stale at once, so
// a rival takes it over without waiting out TTL+grace; a lease whose
// owner is still running (this test's parent) stays live.
func TestSameHostDeadOwnerIsStale(t *testing.T) {
	host, err := os.Hostname()
	if err != nil {
		t.Skipf("no hostname to match owners against: %v", err)
	}
	child := exec.Command(os.Args[0], "-test.run=^$")
	if err := child.Run(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pid  int
		want State
	}{{child.Process.Pid, StateStale}, {os.Getppid(), StateLive}} {
		dir := t.TempDir()
		clk := newManualClock()
		cfg := testConfig(t, dir, clk, "owner")
		cfg.Owner = Owner{Host: host, PID: tc.pid, Token: "owner"}
		if _, err := mustManager(t, cfg).Acquire(0, 0); err != nil {
			t.Fatal(err)
		}
		infos, err := Scan(dir, time.Second, -1, clk.Now)
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 1 || infos[0].State != tc.want {
			t.Fatalf("owner pid %d: scan %+v, want %s", tc.pid, infos, tc.want)
		}
		h, err := mustManager(t, testConfig(t, dir, clk, "rival")).Acquire(0, 0)
		switch {
		case tc.want == StateStale && (err != nil || h.Epoch() != 2 || !h.TookOver() || h.Deposed().PID != tc.pid):
			t.Fatalf("exited owner pid %d: acquire = %v, %v; want a takeover at epoch 2", tc.pid, h, err)
		case tc.want == StateLive && !errors.Is(err, ErrHeld):
			t.Fatalf("running owner pid %d: acquire err = %v, want ErrHeld", tc.pid, err)
		}
	}
}

func TestCorruptLeaseIsStaleNeverFatal(t *testing.T) {
	clock := newManualClock()
	dir := t.TempDir()
	m := mustManager(t, testConfig(t, dir, clock, "owner-a"))

	for _, corrupt := range [][]byte{
		[]byte("garbage"),
		{},
		[]byte("00000000 {\"shard\":0}\n"),
	} {
		if err := os.WriteFile(m.Path(2), corrupt, 0o644); err != nil { // deliberate corruption
			t.Fatal(err)
		}
		if _, state, err := m.Inspect(2); err != nil || state != StateCorrupt {
			t.Fatalf("Inspect(corrupt %q) = %s, %v; want corrupt, nil", corrupt, state, err)
		}
		h, err := m.Acquire(2, 0)
		if err != nil {
			t.Fatalf("Acquire over corrupt lease %q failed: %v", corrupt, err)
		}
		if err := h.Release(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEpochFloorCoversCorruptLease: a corrupt lease hides the old epoch,
// but the caller's floor (from journal file names) still forces the new
// epoch past it.
func TestEpochFloorCoversCorruptLease(t *testing.T) {
	clock := newManualClock()
	dir := t.TempDir()
	m := mustManager(t, testConfig(t, dir, clock, "owner-a"))
	if err := os.WriteFile(m.Path(0), []byte("torn gar"), 0o644); err != nil { // deliberate corruption
		t.Fatal(err)
	}
	h, err := m.Acquire(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if h.Epoch() != 10 {
		t.Fatalf("epoch over floor 9 = %d, want 10", h.Epoch())
	}
}

// TestSplitClaimEpochUniqueness: many concurrent takeovers of the same
// free shard. The O_EXCL claim markers guarantee every claimant —
// winner or loser — a distinct epoch, so no two processes ever share a
// journal file; the verify-after-write in Acquire then settles the race
// by epoch order, so losers get ErrHeld instead of a second live
// ownership. At least one claimant must win. Run under -race.
// (Claimants in one process are serialized outright; see
// TestInProcessAcquireExactlyOneWinner.)
func TestSplitClaimEpochUniqueness(t *testing.T) {
	clock := newManualClock()
	dir := t.TempDir()
	const n = 8
	epochs := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := mustManager(t, testConfig(t, dir, clock, fmt.Sprintf("owner-%d", i)))
			h, err := m.Acquire(0, 0)
			if errors.Is(err, ErrHeld) {
				return // lost the race; epoch burned, never shared
			}
			if err != nil {
				t.Errorf("claimant %d: %v", i, err)
				return
			}
			epochs[i] = h.Epoch()
		}()
	}
	wg.Wait()
	seen := map[uint64]int{}
	winners := 0
	for i, e := range epochs {
		if e == 0 {
			continue // lost the claim race (or failed and reported)
		}
		winners++
		if prev, dup := seen[e]; dup {
			t.Fatalf("claimants %d and %d share epoch %d", prev, i, e)
		}
		seen[e] = i
	}
	if winners == 0 {
		t.Fatal("every claimant lost: the race must elect at least one owner")
	}
}

// TestInProcessAcquireExactlyOneWinner races several Managers of one
// process — the in-process workers of a campaign — on one free shard.
// Exactly one may win every round: a second winner would run the shard
// until its first heartbeat renewal, seconds after an in-process
// campaign has finished. Run under -race.
func TestInProcessAcquireExactlyOneWinner(t *testing.T) {
	for round := 0; round < 20; round++ {
		clock, dir := newManualClock(), t.TempDir()
		var wins atomic.Int32
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < 6; i++ {
			m := mustManager(t, testConfig(t, dir, clock, fmt.Sprintf("owner-%d", i)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := m.Acquire(0, 0); err == nil {
					wins.Add(1)
				} else if !errors.Is(err, ErrHeld) {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := wins.Load(); n != 1 {
			t.Fatalf("round %d: %d managers acquired the same free shard, want exactly 1", round, n)
		}
	}
}

func TestShardsListing(t *testing.T) {
	clock := newManualClock()
	dir := t.TempDir()
	m := mustManager(t, testConfig(t, dir, clock, "owner-a"))
	for _, s := range []int{3, 0, 7} {
		if _, err := m.Acquire(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.Shards()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("Shards() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Shards() = %v, want %v", got, want)
		}
	}
}

func TestReleaseLeavesForeignLease(t *testing.T) {
	clock := newManualClock()
	dir := t.TempDir()
	a := mustManager(t, testConfig(t, dir, clock, "owner-a"))
	b := mustManager(t, testConfig(t, dir, clock, "owner-b"))
	ha, err := a.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second)
	if _, err := b.Acquire(0, 0); err != nil {
		t.Fatal(err)
	}
	// A releases without ever renewing (so it was never fenced): the
	// ownership check must still keep B's lease intact.
	if err := ha.Release(); err != nil {
		t.Fatal(err)
	}
	if l, state, _ := b.Inspect(0); state != StateLive || l.Owner.Token != "owner-b" {
		t.Fatalf("foreign release removed the live lease: state=%s", state)
	}
}

func TestSelfOwnerTokensDiffer(t *testing.T) {
	a, err := SelfOwner()
	if err != nil {
		t.Fatal(err)
	}
	b, err := SelfOwner()
	if err != nil {
		t.Fatal(err)
	}
	if a.Token == b.Token {
		t.Fatal("two SelfOwner calls produced the same token")
	}
	if a.PID != os.Getpid() {
		t.Fatalf("owner pid = %d, want %d", a.PID, os.Getpid())
	}
}
