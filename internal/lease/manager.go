package lease

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"memcontention/internal/atomicio"
	"memcontention/internal/obs"
)

// Config parameterises a lease Manager. TTL, Heartbeat and Grace govern
// liveness: the owner rewrites its lease every Heartbeat; other workers
// treat the lease as stale — and take the shard over — once the last
// heartbeat is older than TTL+Grace. Heartbeat must stay well under the
// TTL (validated: Heartbeat < TTL/3) so a single missed or slow renewal
// never looks like a death.
type Config struct {
	// Dir is the directory holding the lease files (conventionally
	// <campaign-dir>/leases). Created durably if missing.
	Dir string
	// TTL is how long a lease stays live past its last heartbeat
	// (default 15s).
	TTL time.Duration
	// Heartbeat is the renewal interval (default TTL/5). Must be > 0
	// and < TTL/3.
	Heartbeat time.Duration
	// Grace is extra slack added to TTL before a lease is declared
	// stale, absorbing clock skew between processes and write latency
	// (default TTL/2; 0 keeps the default, use a negative value for
	// "no grace" in tests).
	Grace time.Duration
	// Clock supplies the heartbeat timestamps (nil: obs.WallClock —
	// the repo's one sanctioned wall-clock read; tests inject a manual
	// clock).
	Clock obs.Clock
	// Owner identifies this process (zero value: SelfOwner()).
	Owner Owner
	// Registry receives the memcontention_lease_* metrics (claims,
	// takeovers, renewals, renew failures, fences, held leases); nil
	// disables them at zero cost.
	Registry *obs.Registry
}

// ConfigError is the structured rejection of an invalid lease
// configuration: the offending field and why it is wrong. Commands
// surface it verbatim instead of logging and limping on.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("lease: invalid config: %s %s", e.Field, e.Reason)
}

// withDefaults fills the documented defaults (validation happens
// separately so explicit bad values are rejected, not silently fixed).
func (c Config) withDefaults() Config {
	if c.TTL == 0 {
		c.TTL = 15 * time.Second
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = c.TTL / 5
	}
	if c.Grace == 0 {
		c.Grace = c.TTL / 2
	} else if c.Grace < 0 {
		c.Grace = 0
	}
	if c.Clock == nil {
		c.Clock = obs.WallClock
	}
	return c
}

// WithDefaults returns the config with the documented defaults filled
// in — exported so callers that embed a Config (the remote campaign
// plane) can compute derived intervals (poll = heartbeat) without
// duplicating the default table.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// Validate rejects configurations that would make liveness detection
// unsound. Defaults are applied first, so the zero value validates.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Dir == "":
		return &ConfigError{Field: "Dir", Reason: "must name the lease directory"}
	case c.TTL <= 0:
		return &ConfigError{Field: "TTL", Reason: fmt.Sprintf("= %v, must be > 0", c.TTL)}
	case c.Heartbeat <= 0:
		return &ConfigError{Field: "Heartbeat", Reason: fmt.Sprintf("= %v, must be > 0", c.Heartbeat)}
	case c.Heartbeat*3 >= c.TTL:
		return &ConfigError{Field: "Heartbeat", Reason: fmt.Sprintf(
			"= %v, must be < TTL/3 (TTL %v) so one slow renewal is never mistaken for a death", c.Heartbeat, c.TTL)}
	}
	return nil
}

// ErrHeld reports an Acquire attempt on a shard whose lease is live
// under another owner — not an error condition for a worker scanning
// for work, just "move on".
var ErrHeld = errors.New("lease: shard is held by a live owner")

// ErrFenced reports that this process no longer owns a lease it once
// held: another worker bumped the epoch (takeover after staleness) or
// removed the file after completing the shard. The deposed owner must
// stop executing the shard; journal appends it already made landed in
// its own dead-epoch file and are harmless.
var ErrFenced = errors.New("lease: deposed by a higher epoch")

// Manager acquires, renews and releases the shard leases of one
// campaign directory on behalf of one owner process.
type Manager struct {
	cfg Config
	m   instruments
}

// instruments are the manager's telemetry hooks; with no registry every
// field is nil and records nothing (the obs zero-cost-when-off
// contract). Until PR 9 leases were invisible to the registry — an
// operator could not tell a fleet renewing happily from one fencing
// itself to death without reading the lease directory by hand.
type instruments struct {
	claims        *obs.Counter
	takeovers     *obs.Counter
	renewals      *obs.Counter
	renewFailures *obs.Counter
	fences        *obs.Counter
	released      *obs.Counter
	held          *obs.Gauge
}

func newInstruments(r *obs.Registry) instruments {
	return instruments{
		claims:        r.Counter("memcontention_lease_claims_total", "Shard leases acquired by this process.", nil),
		takeovers:     r.Counter("memcontention_lease_takeovers_total", "Acquisitions that replaced a stale or corrupt lease (orphan takeover).", nil),
		renewals:      r.Counter("memcontention_lease_renewals_total", "Successful heartbeat renewals.", nil),
		renewFailures: r.Counter("memcontention_lease_renew_failures_total", "Transient heartbeat-renewal failures (not fences).", nil),
		fences:        r.Counter("memcontention_lease_fences_total", "Leases lost to a higher fencing epoch (this process was deposed).", nil),
		released:      r.Counter("memcontention_lease_releases_total", "Leases released after their shard drained.", nil),
		held:          r.Gauge("memcontention_lease_held", "Shard leases currently held by this process.", nil),
	}
}

// NewManager validates cfg, fills defaults (including a fresh SelfOwner
// when none is given) and durably creates the lease directory.
func NewManager(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Owner.Token == "" {
		owner, err := SelfOwner()
		if err != nil {
			return nil, err
		}
		cfg.Owner = owner
	}
	if err := atomicio.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lease: dir %s: %w", cfg.Dir, err)
	}
	return &Manager{cfg: cfg, m: newInstruments(cfg.Registry)}, nil
}

// Owner reports the identity this manager acquires leases under.
func (m *Manager) Owner() Owner { return m.cfg.Owner }

// Heartbeat reports the configured renewal interval.
func (m *Manager) Heartbeat() time.Duration { return m.cfg.Heartbeat }

// TTL reports the configured time-to-live.
func (m *Manager) TTL() time.Duration { return m.cfg.TTL }

// Path returns the lease file path of shard i.
func (m *Manager) Path(shard int) string {
	return filepath.Join(m.cfg.Dir, fmt.Sprintf("shard-%04d.lease", shard))
}

// claimPath returns the epoch-claim marker of (shard, epoch). Claim
// files are created O_EXCL and never removed: each (shard, epoch) pair
// is claimed by at most one owner ever, which is what makes epochs safe
// to use as journal-file suffixes — two processes can never append to
// the same epoch file.
func (m *Manager) claimPath(shard int, epoch uint64) string {
	return filepath.Join(m.cfg.Dir, fmt.Sprintf("shard-%04d.e%d.claim", shard, epoch))
}

// State classifies a shard's lease for Inspect.
type State string

const (
	// StateFree: no lease file exists.
	StateFree State = "free"
	// StateLive: a decodable lease with a fresh heartbeat.
	StateLive State = "live"
	// StateStale: a decodable lease whose heartbeat is older than
	// TTL+grace, or whose owner is a process of this host that has
	// exited — the owner is presumed dead and the shard can be taken
	// over.
	StateStale State = "stale"
	// StateCorrupt: the lease file exists but does not decode (torn
	// write, garbage, wild fields). Treated exactly like StateStale by
	// Acquire — coordination state must never wedge a campaign.
	StateCorrupt State = "corrupt"
)

// Inspect reports a shard's lease and its liveness classification. The
// returned lease is the zero value for StateFree and StateCorrupt.
func (m *Manager) Inspect(shard int) (Lease, State, error) {
	data, err := os.ReadFile(m.Path(shard))
	if os.IsNotExist(err) {
		return Lease{}, StateFree, nil
	}
	if err != nil {
		return Lease{}, StateFree, fmt.Errorf("lease: read shard %d: %w", shard, err)
	}
	l, derr := Decode(data)
	if derr != nil {
		return Lease{}, StateCorrupt, nil
	}
	if m.cfg.stale(l, m.cfg.Clock()) {
		return l, StateStale, nil
	}
	return l, StateLive, nil
}

// stale reports whether l's owner is presumed dead at now: its heartbeat
// is older than TTL+Grace, or it is a process of this host that has
// exited. The second test lets a crashed owner's shard be taken over at
// once instead of after TTL+Grace.
func (c Config) stale(l Lease, now time.Time) bool {
	return now.Sub(l.Heartbeat()) > c.TTL+c.Grace || ownerExited(l.Owner)
}

// ownerExited reports whether o names a process of this host, other than
// this process, that no longer exists. Only a definite "no such process"
// counts: a permission error, a zombie, a failed probe or another host
// all read as alive. A wrong guess is harmless — epoch fencing deposes a
// live owner whose shard was taken over at its next heartbeat.
func ownerExited(o Owner) bool {
	if o.PID <= 0 || o.PID == os.Getpid() {
		return false
	}
	if host, err := os.Hostname(); err != nil || host != o.Host {
		return false
	}
	p, err := os.FindProcess(o.PID)
	if err != nil {
		return false
	}
	defer p.Release()
	return errors.Is(p.Signal(syscall.Signal(0)), os.ErrProcessDone)
}

// acquireMu serializes Acquire across every Manager of this process,
// from the first Inspect to the verify read. Managers in one process —
// the in-process workers of one campaign — would otherwise split-claim
// a free shard: both pass the liveness check, both write, both verify
// before the other's write lands, and both run the shard until the
// loser's first heartbeat renewal fences it, which comes long after a
// millisecond-scale campaign has finished. Across processes nothing
// changes: claim markers, the verify read and, at worst, the first
// heartbeat renewal settle those races.
var acquireMu sync.Mutex

// Acquire claims shard for this manager's owner. A live lease under
// another owner returns ErrHeld (wrapped with the owner and age, for
// diagnostics). A free, stale or corrupt lease is taken over: the new
// epoch is one past the highest epoch ever observed for the shard —
// the decodable lease epoch, the epochFloor hint (callers pass the
// highest epoch seen in journal file names, covering the case where the
// lease file was corrupted or deleted but a zombie's journal survives),
// and every existing epoch-claim marker — and is reserved by creating
// the claim marker O_EXCL before the lease file is written, so two
// racing takeovers can never end up sharing an epoch.
func (m *Manager) Acquire(shard int, epochFloor uint64) (*Held, error) {
	if shard < 0 {
		return nil, fmt.Errorf("lease: negative shard %d", shard)
	}
	acquireMu.Lock()
	defer acquireMu.Unlock()
	prev, state, err := m.Inspect(shard)
	if err != nil {
		return nil, err
	}
	if state == StateLive && prev.Owner.Token != m.cfg.Owner.Token {
		age := m.cfg.Clock().Sub(prev.Heartbeat())
		return nil, fmt.Errorf("lease: shard %d held by %s (epoch %d, heartbeat %v ago): %w",
			shard, prev.Owner, prev.Epoch, age.Round(time.Millisecond), ErrHeld)
	}
	floor := epochFloor
	if prev.Epoch > floor {
		floor = prev.Epoch
	}
	if claimed, err := m.maxClaimedEpoch(shard); err != nil {
		return nil, err
	} else if claimed > floor {
		floor = claimed
	}
	epoch, err := m.claimEpoch(shard, floor)
	if err != nil {
		return nil, err
	}
	h := &Held{m: m, shard: shard, epoch: epoch}
	if state == StateStale || state == StateCorrupt {
		h.tookOver = true
		h.deposed = prev.Owner
	}
	if err := h.write(); err != nil {
		return nil, err
	}
	// Verify the write stuck. Two workers can race through the staleness
	// check before either writes (the split-claim window); both claim
	// distinct epochs, but only the higher may keep the shard. If the
	// file now carries a higher epoch we lost: report ErrHeld and walk
	// away (the burned claim marker keeps our epoch unique forever, so
	// even this aborted acquisition can never share a journal file).
	// The residual window — both verify before the other's write lands —
	// only exists between processes (acquireMu closes it within one); it
	// closes at the first heartbeat renewal, and epoch-suffixed journals
	// make it harmless meanwhile.
	if cur, state, err := m.Inspect(shard); err != nil {
		return nil, err
	} else if state != StateCorrupt && cur.Epoch > epoch {
		h.mu.Lock()
		h.fenced = true
		h.mu.Unlock()
		return nil, fmt.Errorf("lease: shard %d lost a claim race to %s (epoch %d > %d): %w",
			shard, cur.Owner, cur.Epoch, epoch, ErrHeld)
	}
	m.m.claims.Inc()
	if h.tookOver {
		m.m.takeovers.Inc()
	}
	m.m.held.Add(1)
	return h, nil
}

// maxClaimedEpoch scans the existing claim markers of shard.
func (m *Manager) maxClaimedEpoch(shard int) (uint64, error) {
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return 0, fmt.Errorf("lease: scan %s: %w", m.cfg.Dir, err)
	}
	prefix := fmt.Sprintf("shard-%04d.e", shard)
	var max uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".claim") {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".claim")
		epoch, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			continue // stray file, not a claim marker
		}
		if epoch > max {
			max = epoch
		}
	}
	return max, nil
}

// claimEpoch reserves the first unclaimed epoch above floor via an
// O_EXCL marker file (fsynced, directory fsynced: a claim that
// evaporates on power loss would let the epoch be claimed twice).
func (m *Manager) claimEpoch(shard int, floor uint64) (uint64, error) {
	for epoch := floor + 1; ; epoch++ {
		path := m.claimPath(shard, epoch)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue // raced with another takeover; try the next epoch
		}
		if err != nil {
			return 0, fmt.Errorf("lease: claim shard %d epoch %d: %w", shard, epoch, err)
		}
		// The marker records the claimant for post-mortem debugging of
		// a contended campaign dir; its existence is what matters.
		_, werr := fmt.Fprintf(f, "%s\n", m.cfg.Owner)
		if werr == nil {
			werr = f.Sync()
		}
		cerr := f.Close()
		if werr == nil {
			werr = cerr
		}
		if werr == nil {
			werr = atomicio.SyncDir(m.cfg.Dir)
		}
		if werr != nil {
			return 0, fmt.Errorf("lease: claim shard %d epoch %d: %w", shard, epoch, werr)
		}
		return epoch, nil
	}
}

// Held is an acquired lease: the handle the owning worker renews on its
// heartbeat interval and releases when the shard is drained. Renew and
// Release are safe for concurrent use (the heartbeat goroutine renews
// while the worker loop may release).
type Held struct {
	m        *Manager
	shard    int
	epoch    uint64
	tookOver bool
	deposed  Owner

	mu sync.Mutex
	// memlint:guard mu
	fenced bool
	// memlint:guard mu
	released bool
	// memlint:guard mu
	dropped bool // held-gauge already decremented (fence or release)
}

// Shard reports the shard this lease covers.
func (h *Held) Shard() int { return h.shard }

// Epoch reports the fencing epoch this lease was acquired under; the
// owner journals to the matching epoch-suffixed shard file.
func (h *Held) Epoch() uint64 { return h.epoch }

// TookOver reports whether this acquisition replaced a stale or corrupt
// lease — an orphan takeover rather than a fresh claim. The fleet event
// journal distinguishes the two in the campaign timeline.
func (h *Held) TookOver() bool { return h.tookOver }

// Deposed reports the owner whose stale lease this acquisition replaced
// (the zero Owner for fresh claims and corrupt leases).
func (h *Held) Deposed() Owner { return h.deposed }

// drop decrements the held gauge exactly once per lease. Callers hold
// h.mu.
func (h *Held) drop() {
	if h.dropped {
		return
	}
	h.dropped = true
	h.m.m.held.Add(-1)
}

// write rewrites the lease file with a fresh heartbeat.
func (h *Held) write() error {
	img, err := Encode(Lease{
		Shard:             h.shard,
		Epoch:             h.epoch,
		Owner:             h.m.cfg.Owner,
		HeartbeatUnixNano: h.m.cfg.Clock().UnixNano(),
	})
	if err != nil {
		return err
	}
	if err := atomicio.WriteFile(h.m.Path(h.shard), img, 0o644); err != nil {
		return fmt.Errorf("lease: write shard %d: %w", h.shard, err)
	}
	return nil
}

// Renew re-asserts ownership with a fresh heartbeat. Fencing is
// epoch-ordered, not write-ordered: a decodable lease with a *higher*
// epoch means another owner took the shard over (the stale window
// expired while we were stopped or partitioned) and Renew returns
// ErrFenced — permanently; every later Renew repeats it without
// touching the file. A lease file holding a lower epoch (a deposed
// zombie's last write clobbered ours), our own record, a corrupt image
// or no file at all is overwritten with our heartbeat: the highest
// epoch always wins within one heartbeat interval.
func (h *Held) Renew() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fenced {
		return fmt.Errorf("lease: shard %d epoch %d: %w", h.shard, h.epoch, ErrFenced)
	}
	if h.released {
		return fmt.Errorf("lease: renew after release of shard %d", h.shard)
	}
	data, err := os.ReadFile(h.m.Path(h.shard))
	if err != nil && !os.IsNotExist(err) {
		h.m.m.renewFailures.Inc()
		return fmt.Errorf("lease: renew shard %d: %w", h.shard, err)
	}
	if err == nil {
		if cur, derr := Decode(data); derr == nil && cur.Epoch > h.epoch {
			h.fenced = true
			h.m.m.fences.Inc()
			h.drop()
			return fmt.Errorf("lease: shard %d epoch %d deposed by %s at epoch %d: %w",
				h.shard, h.epoch, cur.Owner, cur.Epoch, ErrFenced)
		}
	}
	if werr := h.write(); werr != nil {
		h.m.m.renewFailures.Inc()
		return werr
	}
	h.m.m.renewals.Inc()
	return nil
}

// Fenced reports whether a Renew observed a higher epoch; the owner
// must stop executing the shard (in-flight work may finish — its
// appends land in the dead epoch file).
func (h *Held) Fenced() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fenced
}

// Release ends ownership: if the lease file still carries our record it
// is removed (durably — the removal is dir-fsynced), so the next
// acquirer starts from StateFree without waiting out the TTL. A fenced
// or already-released lease releases as a no-op; a lease file someone
// else has overwritten is left untouched.
func (h *Held) Release() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.released || h.fenced {
		h.released = true
		return nil
	}
	h.released = true
	h.m.m.released.Inc()
	h.drop()
	path := h.m.Path(h.shard)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("lease: release shard %d: %w", h.shard, err)
	}
	cur, derr := Decode(data)
	if derr != nil || cur.Owner.Token != h.m.cfg.Owner.Token || cur.Epoch != h.epoch {
		return nil // not ours anymore; leave it for its owner
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("lease: release shard %d: %w", h.shard, err)
	}
	if err := atomicio.SyncDir(h.m.cfg.Dir); err != nil {
		return fmt.Errorf("lease: release shard %d: %w", h.shard, err)
	}
	return nil
}

// Shards lists every shard index that currently has a lease file under
// the manager's directory, sorted — a cheap overview for progress
// reporting and the failure matrix in docs/campaigns.md.
func (m *Manager) Shards() ([]int, error) {
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("lease: scan %s: %w", m.cfg.Dir, err)
	}
	var shards []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "shard-") || !strings.HasSuffix(name, ".lease") {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, "shard-"), ".lease")
		n, err := strconv.Atoi(num)
		if err != nil || n < 0 {
			continue
		}
		shards = append(shards, n)
	}
	sort.Ints(shards)
	return shards, nil
}
