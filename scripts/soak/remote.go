// The -remote phase soaks the lease-coordinated multi-process campaign
// (docs/campaigns.md, "Remote campaigns") with real memworker processes
// and real signals — the one failure surface the in-process tests
// cannot reach. A first worker claims a shard and is SIGSTOPped mid-unit
// so its lease expires while the process lives on; two more workers are
// SIGKILLed mid-unit. A fresh worker started after the TTL must take
// every shard over with no manual cleanup and drain the campaign. The
// frozen worker is then SIGCONTed: a genuine zombie that still believes
// it owns its shard and keeps writing — its late appends must land in
// its own dead-epoch journal and merge away against the successor's
// re-execution. Finally `memworker -merge` assembles the artifacts,
// which must be byte-identical to an uninterrupted sequential run.
//
// The choreography is deliberately sequenced so every assertion is
// deterministic: the zombie starts alone (no claim races — it takes the
// first non-empty shard), and the kill victims die strictly before
// their first unit can journal (killDelay < unitDelay), so the
// takeover worker always finds the entire campaign pending.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"

	"memcontention/internal/campaign"
	"memcontention/internal/checkpoint"
)

// Lease timings for the remote phase: short enough that a full
// orphan-takeover cycle fits in a few seconds of wall clock, with the
// heartbeat comfortably under the TTL/3 validation bound.
const (
	remoteTTL       = 2 * time.Second
	remoteHeartbeat = 250 * time.Millisecond

	// staleWait is how long the harness waits after the last signal
	// before starting the takeover worker: the TTL plus the default
	// grace (TTL/2), plus one heartbeat that may have landed just
	// before the signal, plus margin for slow CI runners. The reaped
	// SIGKILL victims' leases read stale at once (their owners are
	// exited processes of this host); the wait is for the frozen
	// zombie, whose process lives on.
	staleWait = remoteTTL + remoteTTL/2 + remoteHeartbeat + 750*time.Millisecond

	// unitDelay throttles the doomed workers so every signal lands
	// while their first unit is still in flight — nothing journaled,
	// every shard an orphan to take over.
	unitDelay = 1500 * time.Millisecond

	// killDelay is how long the SIGKILL victims get to run. Strictly
	// less than unitDelay: a worker's first journal append happens no
	// earlier than claim time + unitDelay >= spawn + unitDelay, so
	// killing at spawn + killDelay guarantees an empty journal — no
	// matter how the two victims raced each other for shards.
	killDelay = 1200 * time.Millisecond

	// remoteShards is sized so that with the soak platform set every
	// shard is non-empty (unit→shard assignment is a deterministic
	// hash of the unit keys), so the takeover worker must claim and
	// drain all of them.
	remoteShards = 3
)

// epilogue matches memworker's exit line:
//
//	memworker host/pid/tok: 5 units across 3 claims, 0 fenced, drained=true
var epilogue = regexp.MustCompile(`(\d+) units across (\d+) claims, (\d+) fenced, drained=(true|false)`)

// workerProc is one spawned memworker process with captured output.
type workerProc struct {
	cmd *exec.Cmd
	out bytes.Buffer
}

func startWorker(bin string, args ...string) (*workerProc, error) {
	w := &workerProc{cmd: exec.Command(bin, args...)}
	w.cmd.Stdout = &w.out
	w.cmd.Stderr = &w.out
	if err := w.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start memworker %v: %w", args, err)
	}
	return w, nil
}

// report parses the worker's epilogue line.
func (w *workerProc) report() (units, claims, fenced int, drained bool, err error) {
	m := epilogue.FindStringSubmatch(w.out.String())
	if m == nil {
		return 0, 0, 0, false, fmt.Errorf("no worker epilogue in output:\n%s", w.out.String())
	}
	fmt.Sscan(m[1], &units)
	fmt.Sscan(m[2], &claims)
	fmt.Sscan(m[3], &fenced)
	return units, claims, fenced, m[4] == "true", nil
}

func soakRemote(seed uint64) error {
	dir, err := os.MkdirTemp("", "memcontention-soak-remote-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Uninterrupted sequential baseline, in-process.
	baseline, err := campaign.Pipeline(campaign.Config{Seed: seed}, platforms)
	if err != nil {
		return fmt.Errorf("baseline pipeline: %w", err)
	}
	baseDir := filepath.Join(dir, "baseline")
	if err := baseline.Write(baseDir); err != nil {
		return err
	}

	// Build the real memworker and memtop binaries once; every step
	// below goes through the production CLIs, not in-process shortcuts.
	bin := filepath.Join(dir, "memworker")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/memworker").CombinedOutput(); err != nil {
		return fmt.Errorf("build memworker: %w\n%s", err, out)
	}
	topBin := filepath.Join(dir, "memtop")
	if out, err := exec.Command("go", "build", "-o", topBin, "./cmd/memtop").CombinedOutput(); err != nil {
		return fmt.Errorf("build memtop: %w\n%s", err, out)
	}

	runDir := filepath.Join(dir, "run")
	leaseDir := filepath.Join(runDir, campaign.LeaseDir)
	doomed := []string{
		"-dir", runDir,
		"-seed", fmt.Sprint(seed),
		"-platforms", strings.Join(platforms, ","),
		"-shard-count", fmt.Sprint(remoteShards),
		"-lease-ttl", remoteTTL.String(),
		"-heartbeat", remoteHeartbeat.String(),
		"-unit-delay", unitDelay.String(),
	}

	var fleet []*workerProc
	defer func() {
		// Leave no processes behind on an assertion failure (Kill works
		// on stopped processes too; already-reaped ones just error).
		for _, w := range fleet {
			w.cmd.Process.Kill()
		}
	}()

	// The zombie starts alone: with no rivals it claims the first
	// non-empty shard, writes campaign.json, and sits in its first
	// unit's throttle. Freezing it once its lease file appears is
	// guaranteed to catch it mid-unit with an empty journal.
	zombie, err := startWorker(bin, doomed...)
	if err != nil {
		return err
	}
	fleet = append(fleet, zombie)
	if err := waitLeases(leaseDir, 1); err != nil {
		return fmt.Errorf("%w\nzombie output:\n%s", err, zombie.out.String())
	}
	if err := zombie.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		return err
	}
	logf("  [remote] zombie claimed a shard and was SIGSTOPped mid-unit")

	// Two more workers join (the zombie's lease is fresh, so they pick
	// other shards — or race each other for them, it doesn't matter)
	// and are SIGKILLed before any of their units can journal.
	var victims []*workerProc
	for i := 0; i < 2; i++ {
		w, err := startWorker(bin, doomed...)
		if err != nil {
			return err
		}
		fleet = append(fleet, w)
		victims = append(victims, w)
	}
	time.Sleep(killDelay)
	for i, w := range victims {
		if err := w.cmd.Process.Signal(syscall.SIGKILL); err != nil {
			return err
		}
		werr := w.cmd.Wait()
		if werr == nil || !strings.Contains(werr.Error(), "signal: killed") {
			return fmt.Errorf("victim %d should have died of SIGKILL, got: %w\noutput:\n%s", i, werr, w.out.String())
		}
	}
	logf("  [remote] SIGKILLed 2 workers mid-unit")
	time.Sleep(staleWait)

	// Mid-churn fleet view: the zombie is frozen and the victims are
	// dead, so memtop must show three stale running workers, only stale
	// leases, and — being strictly read-only — leave the campaign
	// directory byte-for-byte untouched.
	if err := assertMidChurnView(topBin, runDir); err != nil {
		return err
	}
	logf("  [remote] memtop mid-churn: 3 stale workers, stale leases only, directory untouched")

	// The takeover worker joins bare — everything comes from
	// campaign.json — and must claim all shards past the TTL and drain
	// the whole campaign: nothing was journaled before the signals, so
	// every unit is still pending.
	succ, err := startWorker(bin, "-dir", runDir)
	if err != nil {
		return err
	}
	fleet = append(fleet, succ)
	if err := succ.cmd.Wait(); err != nil {
		return fmt.Errorf("takeover worker failed: %w\noutput:\n%s", err, succ.out.String())
	}
	units, claims, sfenced, drained, err := succ.report()
	if err != nil {
		return fmt.Errorf("takeover worker: %w", err)
	}
	if !drained || claims != remoteShards || units == 0 {
		return fmt.Errorf("takeover worker: %d units across %d claims, drained=%v; want all %d shards taken over and drained\noutput:\n%s",
			units, claims, drained, remoteShards, succ.out.String())
	}
	logf("  [remote] takeover worker drained %d units across %d orphaned shards", units, claims)

	// Resurrect the zombie. It still holds an in-memory lease for a
	// shard that was reclaimed and drained at a higher epoch while it
	// slept; it finishes its stale pending list into its own epoch
	// journal — now a dead epoch — and must exit cleanly without
	// corrupting anything.
	if err := zombie.cmd.Process.Signal(syscall.SIGCONT); err != nil {
		return err
	}
	if err := zombie.cmd.Wait(); err != nil {
		return fmt.Errorf("resurrected zombie exited dirty: %w\noutput:\n%s", err, zombie.out.String())
	}
	zunits, _, zfenced, zdrained, err := zombie.report()
	if err != nil {
		return fmt.Errorf("zombie: %w", err)
	}
	if zunits == 0 || !zdrained {
		return fmt.Errorf("zombie ran %d units, drained=%v; want its stale pending list written into the dead epoch\noutput:\n%s",
			zunits, zdrained, zombie.out.String())
	}
	logf("  [remote] zombie resumed, wrote %d units into its dead epoch, exited clean", zunits)

	if err := assertDeadEpochWrite(runDir); err != nil {
		return err
	}

	// Finalize through the production path and byte-check.
	mergedDir := filepath.Join(dir, "merged")
	m, err := startWorker(bin, "-dir", runDir, "-merge", "-out", mergedDir)
	if err != nil {
		return err
	}
	fleet = append(fleet, m)
	if err := m.cmd.Wait(); err != nil {
		return fmt.Errorf("memworker -merge failed: %w\noutput:\n%s", err, m.out.String())
	}
	if err := compareDirs(baseDir, mergedDir); err != nil {
		return err
	}

	// Nothing to clean up by hand: every lease was either released or
	// superseded and then released by its final owner.
	if left, _ := filepath.Glob(filepath.Join(leaseDir, "*.lease")); len(left) != 0 {
		return fmt.Errorf("lease files left after the campaign drained: %v", left)
	}

	// Post-merge fleet view: memtop's unit counts must match the merged
	// ground truth, and the event timeline must tell the churn story with
	// every claim, takeover, fence and completion exactly once.
	if err := assertFinalFleetView(topBin, runDir, units, zfenced+sfenced); err != nil {
		return err
	}
	logf("  [remote] memtop final view consistent: %d/%d units, exactly-once timeline", units, units)
	fmt.Printf("soak: remote ok — 2 workers SIGKILLed + 1 zombie fenced (%d dead-epoch writes), takeover drained %d units across %d shards, merged artifacts byte-identical\n",
		zunits, units, remoteShards)
	return nil
}

// waitLeases polls until n lease files exist — i.e. n shards are
// claimed and their owners are mid-unit (units are throttled by
// unitDelay, so claims strictly precede the first journal append).
func waitLeases(leaseDir string, n int) error {
	const tick = 20 * time.Millisecond
	for i := 0; i < int(10*time.Second/tick); i++ {
		matches, err := filepath.Glob(filepath.Join(leaseDir, "*.lease"))
		if err != nil {
			return err
		}
		if len(matches) >= n {
			return nil
		}
		time.Sleep(tick)
	}
	return fmt.Errorf("no worker claimed a shard within 10s")
}

// assertDeadEpochWrite proves the takeover and the zombie write from
// the journals alone: the zombie's shard must have been reclaimed at a
// fencing epoch >= 2, with at least one unit key appearing in two
// different epoch journals of that shard — the zombie's late append
// plus the successor's re-execution — which the merge path must
// reconcile to one opinion (byte-equal payloads, checked by -merge).
func assertDeadEpochWrite(runDir string) error {
	entries, err := os.ReadDir(runDir)
	if err != nil {
		return err
	}
	type journal struct {
		epoch uint64
		keys  map[string]bool
	}
	byShard := map[int][]journal{}
	for _, e := range entries {
		shard, epoch, ok := checkpoint.ParseShardFile(e.Name())
		if !ok {
			continue
		}
		ents, err := checkpoint.MergeShardFiles([]string{filepath.Join(runDir, e.Name())})
		if err != nil {
			return fmt.Errorf("read %s: %w", e.Name(), err)
		}
		keys := make(map[string]bool, len(ents))
		for _, ent := range ents {
			keys[ent.Key] = true
		}
		byShard[shard] = append(byShard[shard], journal{epoch, keys})
	}
	if len(byShard) != remoteShards {
		return fmt.Errorf("journals for %d shards, want %d", len(byShard), remoteShards)
	}
	reclaimed, overlap := false, false
	for _, js := range byShard {
		var maxEpoch uint64
		seen := map[string]bool{}
		for _, j := range js {
			if j.epoch > maxEpoch {
				maxEpoch = j.epoch
			}
			for k := range j.keys {
				if seen[k] {
					overlap = true
				}
				seen[k] = true
			}
		}
		if maxEpoch >= 2 {
			reclaimed = true
		}
	}
	if !reclaimed {
		return fmt.Errorf("no shard was ever reclaimed at a bumped fencing epoch")
	}
	if !overlap {
		return fmt.Errorf("no unit key landed in two epochs of one shard — the zombie never wrote after being deposed")
	}
	return nil
}

// runMemtop runs the memtop binary against the campaign directory and
// verifies it is strictly read-only: the recursive (path, size) snapshot
// of the directory must be identical before and after. No worker is
// appending during either probe (zombie frozen or exited, victims dead),
// so any difference is memtop's own doing.
func runMemtop(bin, runDir string, args ...string) (string, error) {
	before, err := snapshotDir(runDir)
	if err != nil {
		return "", err
	}
	cmd := exec.Command(bin, append([]string{"-dir", runDir, "-lease-ttl", remoteTTL.String()}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("memtop %v: %w\n%s", args, err, out)
	}
	after, err := snapshotDir(runDir)
	if err != nil {
		return "", err
	}
	if before != after {
		return "", fmt.Errorf("memtop %v mutated the campaign directory:\nbefore:\n%s\nafter:\n%s", args, before, after)
	}
	return string(out), nil
}

// snapshotDir renders the campaign directory as sorted "path size" lines.
func snapshotDir(dir string) (string, error) {
	var b strings.Builder
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s %d\n", path, info.Size())
		return nil
	})
	return b.String(), err
}

// fleetDoc is the subset of memtop's JSON report the soak asserts on.
type fleetDoc struct {
	Units       int `json:"units"`
	Done        int `json:"done"`
	Pending     int `json:"pending"`
	Quarantined int `json:"quarantined"`
	Workers     []struct {
		Worker string `json:"worker"`
		State  string `json:"state"`
		Stale  bool   `json:"stale"`
	} `json:"workers"`
	Leases []struct {
		Shard int    `json:"shard"`
		State string `json:"state"`
	} `json:"leases"`
	Timeline []campaign.Event `json:"timeline"`
}

func memtopJSON(bin, runDir string) (*fleetDoc, error) {
	out, err := runMemtop(bin, runDir, "-json")
	if err != nil {
		return nil, err
	}
	var doc fleetDoc
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		return nil, fmt.Errorf("memtop -json output: %w\n%s", err, out)
	}
	return &doc, nil
}

// assertMidChurnView checks the fleet view while the churn is at its
// worst: every worker that ever joined reads as running but stale (no
// exit event, no fresh event or lease heartbeat), every surviving lease
// is stale, and nothing is done yet (the doomed workers were all
// interrupted before their first journal append).
func assertMidChurnView(bin, runDir string) error {
	doc, err := memtopJSON(bin, runDir)
	if err != nil {
		return err
	}
	if len(doc.Workers) != 3 {
		return fmt.Errorf("mid-churn: %d workers in the fleet view, want 3", len(doc.Workers))
	}
	for _, w := range doc.Workers {
		if w.State != campaign.WorkerRunning || !w.Stale {
			return fmt.Errorf("mid-churn: worker %s is %s (stale=%v), want stale running", w.Worker, w.State, w.Stale)
		}
	}
	if len(doc.Leases) == 0 {
		return fmt.Errorf("mid-churn: no leases in the fleet view; the orphans' leases should survive their owners")
	}
	for _, l := range doc.Leases {
		if l.State == "live" {
			return fmt.Errorf("mid-churn: shard %d lease reads live; every owner is dead or frozen", l.Shard)
		}
	}
	if doc.Done != 0 || doc.Pending != doc.Units {
		return fmt.Errorf("mid-churn: %d/%d done with %d pending; nothing should have journaled before the signals",
			doc.Done, doc.Units, doc.Pending)
	}
	// The human-readable report renders from the same data without error.
	if _, err := runMemtop(bin, runDir); err != nil {
		return err
	}
	return nil
}

// assertFinalFleetView checks the drained campaign: memtop's unit counts
// agree with the merged ground truth, the lifecycle events tell who
// drained and who crashed, and the merged timeline carries every claim,
// takeover, fence and shard completion exactly once.
func assertFinalFleetView(bin, runDir string, mergedUnits, wantFences int) error {
	doc, err := memtopJSON(bin, runDir)
	if err != nil {
		return err
	}
	if doc.Done != mergedUnits || doc.Done != doc.Units || doc.Pending != 0 || doc.Quarantined != 0 {
		return fmt.Errorf("final view: %d/%d done, %d pending, %d quarantined; merge reported %d units",
			doc.Done, doc.Units, doc.Pending, doc.Quarantined, mergedUnits)
	}
	if len(doc.Leases) != 0 {
		return fmt.Errorf("final view: %d leases survive a drained campaign", len(doc.Leases))
	}
	var drained, staleRunning int
	for _, w := range doc.Workers {
		switch {
		case w.State == campaign.WorkerDrained && !w.Stale:
			drained++
		case w.State == campaign.WorkerRunning && w.Stale:
			staleRunning++
		default:
			return fmt.Errorf("final view: worker %s in unexpected state %s (stale=%v)", w.Worker, w.State, w.Stale)
		}
	}
	if drained != 2 || staleRunning != 2 {
		return fmt.Errorf("final view: %d drained + %d stale-running workers, want 2 + 2 (zombie and takeover drained; victims crashed)",
			drained, staleRunning)
	}

	// Exactly-once timeline: fencing epochs are claimed by at most one
	// owner ever, so each (shard, epoch) may carry one claim-or-takeover
	// and one completion; lifecycle events are one per worker.
	counts := map[campaign.EventType]int{}
	claimsAt := map[string]int{}
	completesAt := map[string]int{}
	joins := map[string]int{}
	fences := map[string]int{}
	for _, e := range doc.Timeline {
		counts[e.Type]++
		at := fmt.Sprintf("%d@e%d", e.Shard, e.Epoch)
		switch e.Type {
		case campaign.EventLeaseClaim, campaign.EventOrphanTakeover:
			claimsAt[at]++
		case campaign.EventShardComplete:
			completesAt[at]++
		case campaign.EventWorkerJoin:
			joins[e.Worker]++
		case campaign.EventLeaseFence:
			fences[at]++
		}
	}
	for at, n := range claimsAt {
		if n != 1 {
			return fmt.Errorf("timeline: %d claim events for %s, want exactly 1", n, at)
		}
	}
	for at, n := range completesAt {
		if n != 1 {
			return fmt.Errorf("timeline: %d shard-complete events for %s, want exactly 1", n, at)
		}
	}
	for at, n := range fences {
		if n != 1 {
			return fmt.Errorf("timeline: %d fence events for %s, want exactly 1", n, at)
		}
	}
	for w, n := range joins {
		if n != 1 {
			return fmt.Errorf("timeline: worker %s joined %d times", w, n)
		}
	}
	if len(joins) != 4 {
		return fmt.Errorf("timeline: %d workers joined, want 4 (zombie, 2 victims, takeover)", len(joins))
	}
	if counts[campaign.EventWorkerDrain] != 2 {
		return fmt.Errorf("timeline: %d drains, want 2 (zombie and takeover)", counts[campaign.EventWorkerDrain])
	}
	if counts[campaign.EventOrphanTakeover] < 1 {
		return fmt.Errorf("timeline: no orphan takeover recorded; the takeover worker reclaimed stale shards")
	}
	if counts[campaign.EventLeaseFence] != wantFences {
		return fmt.Errorf("timeline: %d fence events, workers reported %d fences", counts[campaign.EventLeaseFence], wantFences)
	}
	if counts[campaign.EventShardComplete] < remoteShards {
		return fmt.Errorf("timeline: %d shard completions, want >= %d", counts[campaign.EventShardComplete], remoteShards)
	}

	// The CLI timeline and the library agree line for line.
	events, err := campaign.ReadEvents(runDir)
	if err != nil {
		return err
	}
	tlOut, err := runMemtop(bin, runDir, "-events")
	if err != nil {
		return err
	}
	lines := strings.Count(tlOut, "\n")
	if lines != len(events) || len(events) != len(doc.Timeline) {
		return fmt.Errorf("timeline disagreement: %d CLI lines, %d library events, %d JSON events",
			lines, len(events), len(doc.Timeline))
	}
	return nil
}
