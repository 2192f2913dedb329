// Command soak is the kill-and-resume soak harness of the lease campaign
// (docs/resilience.md): it runs the Table II pipeline with its replication
// sweep as an in-process lease campaign (campaign.RunLocal, what
// `paperfigs -shards` runs), cancels it at seeded unit boundaries,
// resumes it from the campaign directory, and asserts that the final
// artifacts are byte-identical to an uninterrupted run — with and without
// a fault plan armed on the DES cross-check.
//
// Kills are simulated in-process by canceling the campaign context from
// the workers' UnitDone callback, which runs once a unit is durably
// journaled: cancel-after-record is exactly what SIGINT does to a lease
// worker, and the on-disk state a SIGKILL after the fsync would leave.
// Between two attempts the harness tears the tail of the newest shard
// journal (a kill mid-append), and between two others it appends garbage
// to it. No worker reopens an old epoch's journal, so those tails stay in
// place, and every later scan for pending units and the final merge must
// read past them.
//
// With -remote the harness instead soaks the lease-coordinated
// multi-process campaign with real memworker processes and real signals
// (SIGKILL, SIGSTOP/SIGCONT) — see remote.go.
//
// Usage: go run ./scripts/soak [-rounds 6] [-seed 1] [-remote] [-v]
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"memcontention/internal/campaign"
	"memcontention/internal/checkpoint"
	"memcontention/internal/faults"
	"memcontention/internal/rng"
)

// platforms keeps a soak run fast while covering sample and non-sample
// placements plus two different NUMA layouts.
var platforms = []string{"henri", "henri-subnuma", "dahu"}

// soakWorkers is the in-process worker count of every attempt, and
// maxKill the most units an attempt completes before its kill.
const (
	soakWorkers = 2
	maxKill     = 3
)

var verbose bool

func logf(format string, args ...any) {
	if verbose {
		fmt.Printf(format+"\n", args...)
	}
}

func main() {
	rounds := flag.Int("rounds", 6, "minimum interruptions per scenario")
	seed := flag.Uint64("seed", 1, "seed for the kill points and the campaign noise")
	remote := flag.Bool("remote", false, "soak the lease-coordinated multi-process campaign (real memworker processes and signals)")
	flag.BoolVar(&verbose, "v", false, "log every kill and resume")
	flag.Parse()

	var err error
	switch {
	case *remote:
		err = soakRemote(*seed)
	default:
		err = soak(*rounds, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "soak: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("soak: PASS")
}

func soak(rounds int, seed uint64) error {
	scenarios := []struct {
		name string
		plan *faults.Plan
	}{
		{"no-faults", nil},
		{"faults", &faults.Plan{
			Seed: 7,
			Events: []faults.Event{
				{At: 0.001, Kind: faults.LinkDegrade, Factor: 0.5, Duration: 0.01},
				{At: 0.002, Kind: faults.MsgDelay, Extra: 0.001, Probability: 0.5, Duration: 0.05},
			},
		}},
	}
	for _, sc := range scenarios {
		if err := soakScenario(sc.name, sc.plan, rounds, seed); err != nil {
			return fmt.Errorf("scenario %s: %w", sc.name, err)
		}
	}
	return nil
}

// replicationsFor sizes the seed ensemble so that every one of rounds
// attempts is killed. A killed attempt completes at most maxKill units
// before its kill plus one unit in flight on each other worker, and an
// attempt with at least maxKill units left reaches its kill. So
// (rounds-1)·(maxKill+soakWorkers-1)+maxKill units suffice; the pipeline
// has len(platforms) evaluations per replication plus the ping-pong sweep
// and the cross-check.
func replicationsFor(rounds int) int {
	need := (rounds-1)*(maxKill+soakWorkers-1) + maxKill - 2
	return max(1, (need+len(platforms)-1)/len(platforms))
}

func soakScenario(name string, plan *faults.Plan, rounds int, seed uint64) error {
	dir, err := os.MkdirTemp("", "memcontention-soak-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cfg := campaign.Config{Seed: seed, Workers: soakWorkers, Replications: replicationsFor(rounds), FaultPlan: plan}
	baseline, err := campaign.Pipeline(cfg, platforms)
	if err != nil {
		return fmt.Errorf("baseline pipeline: %w", err)
	}
	baseDir := filepath.Join(dir, "baseline")
	if err := baseline.Write(baseDir); err != nil {
		return err
	}

	// Kill-and-resume loop: interrupt the first `rounds` attempts at
	// seeded unit boundaries, then let one attempt complete and merge.
	runDir := filepath.Join(dir, "run")
	kills := 0
	killPoints := rng.New(seed, "soak|"+name)
	var res *campaign.ShardResult
	for attempt := 0; ; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		acfg := cfg
		acfg.Context = ctx
		opts := campaign.RemoteOptions{Dir: runDir}
		killing := kills < rounds
		if killing {
			killAt := int32(1 + killPoints.Intn(maxKill))
			var done atomic.Int32
			opts.UnitDone = func(int, string) {
				if done.Add(1) == killAt {
					cancel()
				}
			}
		}
		res, err = campaign.RunLocal(acfg, opts, platforms)
		cancel()
		if err == nil {
			logf("  [%s] attempt %d: ran %d units and merged after %d kills", name, attempt, executed(res), kills)
			break
		}
		if !killing || !checkpoint.IsCanceled(err) {
			return fmt.Errorf("attempt %d: campaign failed mid-soak: %w", attempt, err)
		}
		kills++
		logf("  [%s] attempt %d: killed after %d units", name, attempt, executed(res))
		switch kills {
		case 2:
			// Torn tail: the process died mid-append.
			path, err := newestJournal(runDir)
			if err != nil {
				return err
			}
			if err := chopFile(path, 7); err != nil {
				return err
			}
			logf("  [%s] tore the tail of %s", name, filepath.Base(path))
		case 4:
			// Garbage tail: the disk wrote junk past the valid prefix.
			path, err := newestJournal(runDir)
			if err != nil {
				return err
			}
			if err := appendFile(path, []byte("XXXX corrupt entry\nmore junk")); err != nil {
				return err
			}
			logf("  [%s] appended garbage to %s", name, filepath.Base(path))
		}
	}
	if kills < rounds {
		return fmt.Errorf("only %d kills, want >= %d: the campaign completed before a planned kill", kills, rounds)
	}

	// The resumed artifacts must be byte-identical to the baseline.
	resDir := filepath.Join(dir, "resumed")
	if err := res.Artifacts.Write(resDir); err != nil {
		return err
	}
	if err := compareDirs(baseDir, resDir); err != nil {
		return err
	}
	fmt.Printf("soak: %s ok — %d kills (incl. torn + corrupt shard journal), artifacts byte-identical\n", name, kills)
	return nil
}

// executed counts the units the workers of one attempt ran.
func executed(res *campaign.ShardResult) int {
	n := 0
	if res != nil {
		for _, w := range res.Workers {
			if w != nil {
				n += w.Units
			}
		}
	}
	return n
}

// newestJournal returns the most recently written non-empty shard
// journal of the campaign in dir.
func newestJournal(dir string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.ckpt"))
	if err != nil {
		return "", err
	}
	var newest string
	var newestInfo os.FileInfo
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return "", err
		}
		if info.Size() > 0 && (newestInfo == nil || !info.ModTime().Before(newestInfo.ModTime())) {
			newest, newestInfo = p, info
		}
	}
	if newest == "" {
		return "", errors.New("no shard journal holds a unit")
	}
	return newest, nil
}

// chopFile truncates the last n bytes off path (at most its size).
func chopFile(path string, n int64) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := st.Size() - n
	if size < 0 {
		size = 0
	}
	return os.Truncate(path, size)
}

func appendFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compareDirs asserts both directories hold the same files with the same
// bytes.
func compareDirs(wantDir, gotDir string) error {
	entries, err := os.ReadDir(wantDir)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return errors.New("baseline produced no artifacts")
	}
	for _, e := range entries {
		want, err := os.ReadFile(filepath.Join(wantDir, e.Name()))
		if err != nil {
			return err
		}
		got, err := os.ReadFile(filepath.Join(gotDir, e.Name()))
		if err != nil {
			return fmt.Errorf("resumed run missing artifact %s: %w", e.Name(), err)
		}
		if !bytes.Equal(want, got) {
			return fmt.Errorf("artifact %s differs between baseline and resumed run", e.Name())
		}
	}
	return nil
}
