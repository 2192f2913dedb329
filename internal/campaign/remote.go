package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"time"

	"memcontention/internal/atomicio"
	"memcontention/internal/checkpoint"
	"memcontention/internal/lease"
	"memcontention/internal/sweep"
)

// This file is the remote multi-process campaign plane: several worker
// processes — started independently, possibly on different hosts sharing
// one filesystem — cooperate on a single campaign directory with no
// coordinator process. Coordination is entirely lease-based
// (internal/lease): a worker claims a shard by acquiring its lease,
// journals completed units into an epoch-suffixed shard file
// (shard-NNNN.eK.ckpt), heartbeats while it works, and releases the
// lease when the shard is drained. A worker that dies stops
// heartbeating; after TTL+grace any survivor takes the shard over under
// a higher fencing epoch and resumes from the union of the shard's
// journal files. A deposed zombie that is still running can only append
// to its own dead-epoch file — harmless, because campaigns are
// deterministic in (seed, config) and the merge unions epochs with
// byte-equality conflict detection. RunLocal (local.go) runs the same
// workers as goroutines of one process.

// ManifestFile is the campaign manifest written into the campaign
// directory: the (seed, platforms, shards, replications) tuple every
// joining worker must agree on. Unit keys and home-shard assignment
// derive from it, so two workers with different manifests would journal
// disjoint or — worse — conflicting unit sets.
const ManifestFile = "campaign.json"

// LeaseDir is the subdirectory of a campaign directory holding the
// shard lease files and epoch-claim markers.
const LeaseDir = "leases"

// Manifest pins the parameters of a remote campaign. The first process
// to touch the campaign directory writes it (durably, atomically);
// everyone else verifies against it.
type Manifest struct {
	Seed         uint64   `json:"seed"`
	Platforms    []string `json:"platforms"`
	Shards       int      `json:"shards"`
	Replications int      `json:"replications"`
}

// ManifestMismatchError is the structured rejection of a worker whose
// parameters disagree with the campaign's manifest: which field, what
// the manifest pins, what the worker asked for. Joining with different
// parameters would silently corrupt unit-key assignment, so this is
// fatal, never papered over.
type ManifestMismatchError struct {
	Path  string
	Field string
	Have  string // what the on-disk manifest pins
	Want  string // what this invocation asked for
}

func (e *ManifestMismatchError) Error() string {
	return fmt.Sprintf("campaign: manifest %s pins %s=%s but this invocation wants %s (pass matching flags or a fresh -dir)",
		e.Path, e.Field, e.Have, e.Want)
}

// LoadManifest reads the manifest of an existing campaign directory.
// A missing file is reported via os.ErrNotExist (callers joining an
// existing campaign may fall back to their own defaults and let
// EnsureManifest write them).
func LoadManifest(dir string) (Manifest, error) {
	path := filepath.Join(dir, ManifestFile)
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("campaign: manifest %s: %w", path, err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("campaign: manifest %s: %w", path, err)
	}
	if err := m.validate(); err != nil {
		return Manifest{}, fmt.Errorf("campaign: manifest %s: %w", path, err)
	}
	return m, nil
}

func (m Manifest) validate() error {
	switch {
	case m.Shards < 1:
		return fmt.Errorf("shards = %d, must be >= 1", m.Shards)
	case len(m.Platforms) == 0:
		return errors.New("no platforms")
	case m.Seed == 0:
		return errors.New("seed 0 (the campaign default is 1; 0 means the manifest was never normalised)")
	case m.Replications < 0:
		return fmt.Errorf("replications = %d, must be >= 0", m.Replications)
	}
	return nil
}

// EnsureManifest writes want as the campaign manifest if none exists
// (durably: atomic write, directory chain fsynced) or verifies the
// existing one matches field by field, returning the authoritative
// manifest either way. Creation races between workers are benign: both
// write identical bytes (the encoding is canonical), and a worker that
// loses the rename race re-reads a manifest equal to its own.
func EnsureManifest(dir string, want Manifest) (Manifest, error) {
	if err := want.validate(); err != nil {
		return Manifest{}, fmt.Errorf("campaign: manifest for %s: %w", dir, err)
	}
	path := filepath.Join(dir, ManifestFile)
	if err := atomicio.MkdirAll(dir, 0o755); err != nil {
		return Manifest{}, fmt.Errorf("campaign: manifest %s: %w", path, err)
	}
	have, err := LoadManifest(dir)
	if errors.Is(err, os.ErrNotExist) {
		data, merr := json.MarshalIndent(want, "", "  ")
		if merr != nil {
			return Manifest{}, fmt.Errorf("campaign: manifest %s: %w", path, merr)
		}
		if werr := atomicio.WriteFile(path, append(data, '\n'), 0o644); werr != nil {
			return Manifest{}, fmt.Errorf("campaign: manifest %s: %w", path, werr)
		}
		return want, nil
	}
	if err != nil {
		return Manifest{}, err
	}
	mismatch := func(field, h, w string) (Manifest, error) {
		return Manifest{}, &ManifestMismatchError{Path: path, Field: field, Have: h, Want: w}
	}
	switch {
	case have.Seed != want.Seed:
		return mismatch("seed", fmt.Sprint(have.Seed), fmt.Sprint(want.Seed))
	case !reflect.DeepEqual(have.Platforms, want.Platforms):
		return mismatch("platforms", fmt.Sprintf("%v", have.Platforms), fmt.Sprintf("%v", want.Platforms))
	case have.Shards != want.Shards:
		return mismatch("shards", fmt.Sprint(have.Shards), fmt.Sprint(want.Shards))
	case have.Replications != want.Replications:
		return mismatch("replications", fmt.Sprint(have.Replications), fmt.Sprint(want.Replications))
	}
	return have, nil
}

// ParseWorkers parses a -workers flag value: a non-negative worker
// count ("0", "8") for the in-process run, or the literal
// "remote" to finalize a lease-coordinated remote campaign
// (docs/campaigns.md).
func ParseWorkers(s string) (workers int, remote bool, err error) {
	s = strings.TrimSpace(s)
	if strings.EqualFold(s, "remote") {
		return 0, true, nil
	}
	n, aerr := strconv.Atoi(s)
	if aerr != nil || n < 0 {
		return 0, false, fmt.Errorf(`campaign: -workers must be a non-negative worker count or "remote", got %q`, s)
	}
	return n, false, nil
}

// RemoteOptions parameterises one remote worker (or the finalizer) of a
// lease-coordinated campaign.
type RemoteOptions struct {
	// Dir is the campaign directory: shard journals at the top level,
	// leases/ underneath, campaign.json pinning the parameters.
	// Required — remote campaigns have no anonymous temp-dir mode, the
	// directory is the rendezvous.
	Dir string
	// Shards is the shard count pinned into the manifest when this
	// worker creates the campaign (0: GOMAXPROCS). Joining workers must
	// agree with the manifest.
	Shards int
	// Lease carries the liveness parameters (TTL, Heartbeat, Grace,
	// Clock, Owner); Dir is filled in from the campaign directory. The
	// zero value uses the lease defaults (15s TTL, 3s heartbeat).
	Lease lease.Config
	// MaxAttempts bounds how often one unit may fail — an error or a
	// panic — on this worker before the worker quarantines it and moves
	// on to the next unit (default 3).
	MaxAttempts int
	// Backoff returns the delay before retry `attempt` (1-based); the
	// default doubles from 10ms and saturates at 1s.
	Backoff func(attempt int) time.Duration
	// Sleep waits between heartbeats, retries and idle rescans; the
	// default honors ctx. Tests inject manual gates here to freeze a
	// worker mid-shard (the in-process stand-in for SIGSTOP).
	Sleep func(ctx context.Context, d time.Duration) error
	// Poll is the idle rescan interval: how often a worker with nothing
	// claimable re-examines the shards, and how often the finalizer
	// re-checks completion (default: the lease heartbeat interval;
	// RunLocal's in-process workers default to 5ms).
	Poll time.Duration
	// UnitStart, when set, runs before each unit execution — after the
	// fencing check, so a test that parks a worker here and lets its
	// lease expire is guaranteed the unit still runs to completion into
	// the dead epoch (the documented zombie write path).
	UnitStart func(shard int, key string)
	// UnitDone, when set, runs after each unit is durably journaled.
	UnitDone func(shard int, key string)

	// faultHook, when set, runs before each unit attempt (1-based) and
	// may fail or panic it; the retry, panic and quarantine tests inject
	// unit failures here.
	faultHook func(key string, attempt int) error
}

func (o RemoteOptions) withDefaults() RemoteOptions {
	if o.Shards <= 0 {
		o.Shards = sweep.DefaultWorkers()
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Backoff == nil {
		o.Backoff = func(attempt int) time.Duration {
			d := 10 * time.Millisecond << uint(attempt-1)
			if d > time.Second {
				d = time.Second
			}
			return d
		}
	}
	if o.Sleep == nil {
		o.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	if o.Poll <= 0 {
		o.Poll = o.Lease.WithDefaults().Heartbeat
	}
	return o
}

// RemoteReport summarises one worker's share of a remote campaign.
type RemoteReport struct {
	// Owner is the lease identity the worker ran under.
	Owner lease.Owner
	// Claimed lists the shards this worker acquired, in acquisition
	// order (a shard re-acquired after fencing or release appears
	// again).
	Claimed []int
	// Units counts the units this worker executed and journaled.
	Units int
	// Fenced counts leases this worker lost to a higher epoch mid-shard
	// (it stopped at the next unit boundary; its journal appends are in
	// dead-epoch files).
	Fenced int
	// RenewErrors counts transient heartbeat-renewal failures. They are
	// not fatal: a worker whose renewals fail simply looks dead and
	// loses its leases to takeover, and epoch fencing keeps its journal
	// writes isolated regardless.
	RenewErrors int
	// Drained reports whether the worker observed the whole campaign
	// complete (every unit journaled) before returning.
	Drained bool
	// Quarantined lists the units this worker gave up on after
	// MaxAttempts failed attempts, sorted by key. The worker never runs
	// them again; it journals everything else and then returns a
	// *QuarantineError.
	Quarantined []QuarantineRecord
	// ObsErrors counts event-journal writes that failed. Observability
	// never kills a worker — emission failures are counted here instead
	// of propagating — but a nonzero count means memtop's view of this
	// worker is incomplete.
	ObsErrors int
}

// RemoteWorker joins the remote campaign in opts.Dir and works it until
// every unit of every shard is journaled (Drained=true) or the context
// is canceled. It scans the shards in order, skips complete ones, claims
// unleased (or stale-leased) ones, and for each claim executes the
// pending units into that claim's epoch journal while a heartbeat
// goroutine renews the lease. A unit that fails MaxAttempts times is
// quarantined by this worker, which then returns a *QuarantineError
// once every other unit is journaled.
//
// Crash safety falls out of the layering: a SIGKILLed worker leaves its
// lease to go stale and its journal prefix intact; a canceled worker
// (first SIGINT under checkpoint.SignalContext) stops at the next unit
// boundary and releases its leases so successors need not wait out the
// TTL; a deposed worker finishes its in-flight unit into the dead epoch
// and stops at the fencing check.
func RemoteWorker(cfg Config, opts RemoteOptions, names []string) (*RemoteReport, error) {
	cfg, opts, man, set, err := remoteSetup(cfg, opts, names)
	if err != nil {
		return nil, err
	}
	units, err := pipelineUnits(cfg, man.Platforms)
	if err != nil {
		return nil, err
	}
	byShard := make([][]unit, man.Shards)
	for _, u := range units {
		s := homeShard(u.Key, man.Shards)
		byShard[s] = append(byShard[s], u)
	}
	lcfg := opts.Lease
	lcfg.Dir = filepath.Join(opts.Dir, LeaseDir)
	lcfg.Registry = cfg.Registry
	mgr, err := lease.NewManager(lcfg)
	if err != nil {
		return nil, err
	}
	fo, err := newFleetObs(opts.Dir, mgr.Owner(), lcfg.WithDefaults().Clock)
	if err != nil {
		return nil, err
	}
	report := &RemoteReport{Owner: mgr.Owner()}
	err = remoteWork(cfg.ctx(), cfg, opts, set, mgr, fo, byShard, report)
	// Funnel every exit through one lifecycle event, so the fleet view
	// can tell a clean exit from a crash.
	fo.finish(err)
	report.ObsErrors = fo.errors()
	return report, err
}

// remoteWork is RemoteWorker's scan-claim-execute loop, separated so
// every exit path funnels through the caller's lifecycle event.
func remoteWork(ctx context.Context, cfg Config, opts RemoteOptions, set *checkpoint.ShardSet,
	mgr *lease.Manager, fo *fleetObs, byShard [][]unit, report *RemoteReport) error {
	for {
		progressed := false
		allDone := true
		for shard := range byShard {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("campaign: remote worker: %w", err)
			}
			pending, err := pendingUnits(set, byShard[shard], shard, report.Quarantined)
			if err != nil {
				return err
			}
			if len(pending) == 0 {
				continue
			}
			allDone = false
			floor, err := set.MaxEpoch(shard)
			if err != nil {
				return err
			}
			held, err := mgr.Acquire(shard, floor)
			if errors.Is(err, lease.ErrHeld) {
				continue // a live owner is on it; move on
			}
			if err != nil {
				return err
			}
			report.Claimed = append(report.Claimed, shard)
			fo.claimed(held)
			// Re-scan after the claim: the previous owner may have
			// journaled more units — or drained the shard entirely —
			// between our pending scan and its release. Acquire succeeded,
			// so the old owner's journals are closed and on disk; working
			// from this second scan means healthy handoffs never execute
			// a unit twice (only a fenced zombie's in-flight unit or a
			// split-claim race between processes can overlap, each into
			// its own epoch file with byte-identical payloads).
			pending, err = pendingUnits(set, byShard[shard], shard, report.Quarantined)
			if err != nil {
				held.Release()
				return err
			}
			if len(pending) == 0 {
				if err := held.Release(); err != nil {
					return err
				}
				continue
			}
			ran, rerr := runLeasedShard(ctx, cfg, opts, set, held, mgr.Heartbeat(), pending, fo, report)
			report.Units += ran
			if rerr != nil {
				return rerr
			}
			if ran > 0 {
				progressed = true
			}
		}
		if allDone {
			if len(report.Quarantined) > 0 {
				return &QuarantineError{Records: report.Quarantined}
			}
			report.Drained = true
			return nil
		}
		if !progressed {
			// Everything pending is leased by live peers (or fenced away
			// from us). Wait one poll interval for them to finish or die.
			if err := opts.Sleep(ctx, opts.Poll); err != nil {
				return fmt.Errorf("campaign: remote worker: %w", err)
			}
		}
	}
}

// remoteSetup is the shared preamble of RemoteWorker and RemoteMerge:
// defaults, manifest rendezvous (the manifest overrides cfg and names —
// it is the campaign's authority), shard set.
func remoteSetup(cfg Config, opts RemoteOptions, names []string) (Config, RemoteOptions, Manifest, *checkpoint.ShardSet, error) {
	if opts.Dir == "" {
		return cfg, opts, Manifest{}, nil, errors.New("campaign: remote campaign needs a directory (RemoteOptions.Dir)")
	}
	// Zero-valued knobs inherit the existing campaign's manifest — the
	// common "join (or finalize) whatever is running there" case: a nil
	// platform list, Seed 0, Shards 0 and Replications <= 1 all mean
	// "the campaign's own value". Non-zero values are pinned and any
	// disagreement with the manifest is rejected by EnsureManifest
	// below with the exact field. Defaults apply only after
	// inheritance, so a fresh directory still gets seed 1 and
	// GOMAXPROCS shards.
	if have, lerr := LoadManifest(opts.Dir); lerr == nil {
		if len(names) == 0 {
			names = have.Platforms
		}
		if cfg.Seed == 0 {
			cfg.Seed = have.Seed
		}
		if cfg.Replications <= 1 {
			cfg.Replications = have.Replications
		}
		if opts.Shards == 0 {
			opts.Shards = have.Shards
		}
	} else if !errors.Is(lerr, os.ErrNotExist) {
		return cfg, opts, Manifest{}, nil, lerr
	}
	cfg = cfg.withDefaults()
	opts = opts.withDefaults()
	if len(names) == 0 {
		names = TestbedNames()
	}
	set, err := checkpoint.OpenShardSet(opts.Dir)
	if err != nil {
		return cfg, opts, Manifest{}, nil, err
	}
	repl := cfg.Replications
	if repl <= 1 {
		repl = 0 // 0 and 1 both mean a single replication; canonicalise
	}
	man, err := EnsureManifest(opts.Dir, Manifest{
		Seed:         cfg.Seed,
		Platforms:    names,
		Shards:       opts.Shards,
		Replications: repl,
	})
	if err != nil {
		return cfg, opts, Manifest{}, nil, err
	}
	cfg.Seed = man.Seed
	cfg.Replications = man.Replications
	return cfg, opts, man, set, nil
}

// pendingUnits returns the units of shard this worker still has to
// run: not journaled in any of the shard's journal files (any epoch —
// completed work survives takeover) and not quarantined by it.
func pendingUnits(set *checkpoint.ShardSet, units []unit, shard int, quarantined []QuarantineRecord) ([]unit, error) {
	files, err := set.ShardFiles(shard)
	if err != nil {
		return nil, err
	}
	return unjournaled(files, units, quarantined)
}

// unjournaled returns the units journaled in none of files and not in
// skip. A merge conflict here means journal corruption or a
// nondeterminism bug and fails loudly, exactly like the final merge.
func unjournaled(files []string, units []unit, skip []QuarantineRecord) ([]unit, error) {
	entries, err := checkpoint.MergeShardFiles(files)
	if err != nil {
		return nil, err
	}
	done := make(map[string]bool, len(entries)+len(skip))
	for _, e := range entries {
		done[e.Key] = true
	}
	for _, q := range skip {
		done[q.Key] = true
	}
	var out []unit
	for _, u := range units {
		if !done[u.Key] {
			out = append(out, u)
		}
	}
	return out, nil
}

// runLeasedShard executes pending units under an acquired lease:
// journal opened at the lease's epoch, heartbeat goroutine renewing on
// the configured interval, fencing checked between units. A unit that
// exhausts its attempts is quarantined into the report and the loop
// moves on. It returns the number of units completed and always closes
// the journal and releases the lease (Release is a no-op on a fenced
// lease, so a new owner's lease file is never disturbed).
func runLeasedShard(ctx context.Context, cfg Config, opts RemoteOptions, set *checkpoint.ShardSet,
	held *lease.Held, heartbeat time.Duration, pending []unit, fo *fleetObs, report *RemoteReport) (int, error) {
	j, err := set.OpenEpochShard(held.Shard(), held.Epoch())
	if err != nil {
		held.Release()
		return 0, err
	}
	j.SetRegistry(cfg.Registry)

	// The heartbeat goroutine sleeps first — Acquire just wrote a fresh
	// heartbeat — then renews until fenced or stopped. Its counters are
	// published to the report only after <-hbDone (the channel close is
	// the happens-before edge).
	hbCtx, hbStop := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	var renewErrs int
	go func() {
		defer close(hbDone)
		for {
			// Sleep honors hbCtx, but it is an injected func value whose
			// body the analyzer cannot see; checking the context here makes
			// the termination path explicit (and survives a Sleep stub that
			// ignores cancellation, as some tests install).
			if hbCtx.Err() != nil {
				return
			}
			if err := opts.Sleep(hbCtx, heartbeat); err != nil {
				return
			}
			if err := held.Renew(); err != nil {
				if errors.Is(err, lease.ErrFenced) {
					return
				}
				renewErrs++
				fo.emit(EventLeaseRenewFailure, held.Shard(), held.Epoch(), "", err.Error())
			}
		}
	}()

	ran := 0
	var runErr error
	for _, u := range pending {
		if err := ctx.Err(); err != nil {
			runErr = fmt.Errorf("campaign: remote worker: %w", err)
			break
		}
		if held.Fenced() {
			break
		}
		if opts.UnitStart != nil {
			opts.UnitStart(held.Shard(), u.Key)
		}
		if err := runRemoteUnit(ctx, cfg, opts, j, u); err != nil {
			if checkpoint.IsCanceled(err) {
				runErr = fmt.Errorf("campaign: remote worker: %w", err)
				break
			}
			detail := fmt.Sprintf("campaign: unit %s (shard %d) failed after %d attempts: %v", u.Key, held.Shard(), opts.MaxAttempts, err)
			report.Quarantined = append(report.Quarantined, QuarantineRecord{Key: u.Key, Shard: held.Shard(), Attempts: opts.MaxAttempts, Error: detail})
			sortQuarantine(report.Quarantined)
			fo.emit(EventUnitQuarantine, held.Shard(), 0, u.Key, detail)
			continue
		}
		ran++
		fo.emit(EventUnitDone, held.Shard(), held.Epoch(), u.Key, "")
		if opts.UnitDone != nil {
			opts.UnitDone(held.Shard(), u.Key)
		}
	}

	hbStop()
	<-hbDone
	report.RenewErrors += renewErrs
	// Fencing is judged once, after the heartbeat goroutine has joined:
	// whether the unit loop saw it or only the last renewal did, the
	// fence is counted — and journaled — exactly once per lost lease.
	fenced := held.Fenced()
	if fenced {
		report.Fenced++
		fo.emit(EventLeaseFence, held.Shard(), held.Epoch(), "", "")
	}
	cerr := j.Close()
	relErr := held.Release()
	if runErr == nil && cerr == nil && relErr == nil && !fenced && ran == len(pending) {
		fo.emit(EventShardComplete, held.Shard(), held.Epoch(), "", "")
	}
	if runErr != nil {
		return ran, runErr
	}
	if cerr != nil {
		return ran, cerr
	}
	return ran, relErr
}

// runRemoteUnit runs one unit with the worker's retry budget, backing
// off between attempts. Cancellation ends it at once and charges
// nothing; any other failure is charged to the attempt it ended.
func runRemoteUnit(ctx context.Context, cfg Config, opts RemoteOptions, j *checkpoint.Journal, u unit) error {
	var last error
	for attempt := 1; attempt <= opts.MaxAttempts; attempt++ {
		if attempt > 1 {
			if err := opts.Sleep(ctx, opts.Backoff(attempt-1)); err != nil {
				return err
			}
		}
		err := runAttempt(cfg, opts, j, u, attempt)
		if err == nil || checkpoint.IsCanceled(err) {
			return err
		}
		last = err
	}
	return last
}

// runAttempt runs one attempt of u into j and verifies it journaled its
// key, so a completed unit can never vanish from the merge. A panic in
// the unit becomes this attempt's error: one broken unit must not take
// down the worker and every healthy unit it has yet to run.
func runAttempt(cfg Config, opts RemoteOptions, j *checkpoint.Journal, u unit, attempt int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("campaign: unit %s panicked: %v", u.Key, p)
		}
	}()
	if opts.faultHook != nil {
		if err := opts.faultHook(u.Key, attempt); err != nil {
			return err
		}
	}
	wcfg := cfg
	wcfg.Journal = j
	wcfg.Workers = 1 // the unit is the parallelism grain
	if err := u.run(wcfg); err != nil {
		return err
	}
	if !j.Has(u.Key) {
		return fmt.Errorf("campaign: unit %s completed without journaling its key", u.Key)
	}
	return nil
}

// RemoteIncompleteError reports a finalize attempt on a campaign whose
// workers have not journaled every unit yet (only surfaced when the
// finalizer's context expires while waiting).
type RemoteIncompleteError struct {
	// Missing lists the unit keys not yet journaled, sorted (they are
	// enumerated in deterministic order).
	Missing []string
}

func (e *RemoteIncompleteError) Error() string {
	return fmt.Sprintf("campaign: remote campaign incomplete: %d units not journaled (first: %s)",
		len(e.Missing), e.Missing[0])
}

// ShardResult is the outcome of a merged lease campaign.
type ShardResult struct {
	// Artifacts holds the assembled pipeline artifacts (nil when the
	// campaign was interrupted or quarantined units).
	Artifacts *Artifacts
	// Workers holds the reports of RunLocal's in-process workers in
	// start order (nil from RemoteMerge).
	Workers []*RemoteReport
}

// RemoteMerge finalizes a remote campaign: it waits (polling on
// opts.Poll, bounded by cfg.Context) until every unit of the manifest's
// pipeline is journaled somewhere in the shard set and every shard with
// assigned units has at least one journal file, then merges all shard
// journals — every epoch, dead ones included — into merged.ckpt with
// byte-equality conflict detection, and replays the sequential pipeline
// assembly against the merged journal. The artifacts are therefore the
// sequential run's artifacts byte for byte, regardless of how many
// workers ran, died, or were fenced: no unit is lost (completeness is
// checked against the enumerated unit list) and none is double-charged
// (duplicate keys must carry identical payloads and collapse to one
// entry).
func RemoteMerge(cfg Config, opts RemoteOptions, names []string) (*ShardResult, error) {
	cfg, opts, man, set, err := remoteSetup(cfg, opts, names)
	if err != nil {
		return nil, err
	}
	units, err := pipelineUnits(cfg, man.Platforms)
	if err != nil {
		return nil, err
	}
	ctx := cfg.ctx()
	for {
		missing, err := missingUnits(set, units)
		if err != nil {
			return nil, err
		}
		if len(missing) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("campaign: remote merge: %w (%w)", err, &RemoteIncompleteError{Missing: missing})
		}
		if err := opts.Sleep(ctx, opts.Poll); err != nil {
			return nil, fmt.Errorf("campaign: remote merge: %w (%w)", err, &RemoteIncompleteError{Missing: missing})
		}
	}
	// Every unit is journaled; verify per-shard journal presence anyway —
	// a shard with assigned units but no file would mean its units were
	// journaled under a foreign shard's file, i.e. a home-shard bug.
	for shard := 0; shard < man.Shards; shard++ {
		assigned := 0
		for _, u := range units {
			if homeShard(u.Key, man.Shards) == shard {
				assigned++
			}
		}
		if assigned == 0 {
			continue
		}
		files, err := set.ShardFiles(shard)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("campaign: remote merge: shard %d has %d assigned units but no journal file", shard, assigned)
		}
	}

	merged, err := mergeShardSet(set, opts.Dir)
	if err != nil {
		return nil, err
	}
	defer merged.Close()
	res := &ShardResult{}
	mcfg := cfg
	mcfg.Journal = merged
	mcfg.Context = nil // assembly reads the journal; nothing to cancel
	art, err := Pipeline(mcfg, man.Platforms)
	if err != nil {
		return res, err
	}
	res.Artifacts = art
	return res, nil
}

// missingUnits lists the unit keys not yet present in the union of all
// shard journal files.
func missingUnits(set *checkpoint.ShardSet, units []unit) ([]string, error) {
	paths, err := set.Paths()
	if err != nil {
		return nil, err
	}
	left, err := unjournaled(paths, units, nil)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(left))
	for i, u := range left {
		keys[i] = u.Key
	}
	return keys, nil
}

// mergeShardSet merges every shard journal of set into merged.ckpt in
// its directory and opens it.
func mergeShardSet(set *checkpoint.ShardSet, dir string) (*checkpoint.Journal, error) {
	paths, err := set.Paths()
	if err != nil {
		return nil, err
	}
	entries, err := checkpoint.MergeShardFiles(paths)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "merged.ckpt")
	if err := checkpoint.WriteJournal(path, entries); err != nil {
		return nil, err
	}
	return checkpoint.Open(path)
}
