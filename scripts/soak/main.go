// Command soak is the kill-and-resume soak harness for the checkpoint
// layer (docs/resilience.md): it runs the full Table II pipeline, kills
// it at seeded-random unit boundaries, resumes from the journal, and
// asserts that the final artifacts are byte-identical to an uninterrupted
// run — with and without a fault plan armed on the DES cross-check, plus
// a torn-tail and a corrupt-journal round that must recover without
// panicking.
//
// Kills are simulated in-process by canceling the campaign context from
// the journal's RecordHook: because every append is fsynced before the
// hook runs, cancel-after-record is exactly the on-disk state a SIGKILL
// after the fsync would leave. The torn-tail round additionally chops
// bytes off the journal to model a kill mid-write.
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

	"memcontention/internal/campaign"
	"memcontention/internal/checkpoint"
	"memcontention/internal/faults"
	"memcontention/internal/rng"
)

// platforms keeps a soak run fast while covering sample and non-sample
// placements plus two different NUMA layouts.
var platforms = []string{"henri", "henri-subnuma", "dahu"}

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

func soakScenario(name string, plan *faults.Plan, rounds int, seed uint64) error {
	dir, err := os.MkdirTemp("", "memcontention-soak-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Uninterrupted baseline.
	baseline, err := campaign.Pipeline(campaign.Config{Seed: seed, FaultPlan: plan}, platforms)
	if err != nil {
		return fmt.Errorf("baseline pipeline: %w", err)
	}
	baseDir := filepath.Join(dir, "baseline")
	if err := baseline.Write(baseDir); err != nil {
		return err
	}

	// Kill-and-resume loop: keep interrupting at seeded unit boundaries
	// until the pipeline completes, with at least `rounds` kills. Two of
	// the kills additionally corrupt the journal tail (torn write, then
	// garbage) before the resume, which must recover cleanly.
	jpath := filepath.Join(dir, "run.ckpt")
	kills := 0
	killPoints := rng.New(seed, "soak|"+name)
	var resumed *campaign.Artifacts
	for attempt := 0; ; attempt++ {
		if attempt > 10*rounds+100 {
			return fmt.Errorf("pipeline did not complete after %d attempts", attempt)
		}
		j, err := checkpoint.Open(jpath)
		if err != nil {
			return fmt.Errorf("attempt %d: reopen journal: %w", attempt, err)
		}
		if j.RecoveredBytes() > 0 {
			logf("  [%s] attempt %d: recovered journal, truncated %d corrupt bytes, %d entries intact",
				name, attempt, j.RecoveredBytes(), j.LoadedEntries())
		}
		ctx, cancel := context.WithCancel(context.Background())
		if kills < rounds {
			// Cancel 1–3 freshly recorded units past what the journal
			// already holds, so every attempt makes progress and dies.
			killAt := j.LoadedEntries() + 1 + killPoints.Intn(3)
			j.RecordHook = func(_ string, total int) {
				if total >= killAt {
					cancel()
				}
			}
		}
		resumed, err = campaign.Pipeline(campaign.Config{
			Seed:      seed,
			Context:   ctx,
			Journal:   j,
			FaultPlan: plan,
		}, platforms)
		cancel()
		entries := j.Len()
		if cerr := j.Close(); cerr != nil {
			return cerr
		}
		if err == nil {
			logf("  [%s] attempt %d: completed with %d journal entries after %d kills",
				name, attempt, entries, kills)
			break
		}
		if !checkpoint.IsCanceled(err) {
			return fmt.Errorf("attempt %d: pipeline failed mid-soak: %w", attempt, err)
		}
		kills++
		logf("  [%s] attempt %d: killed at %d journal entries", name, attempt, entries)
		switch kills {
		case 2:
			// Torn tail: the process died mid-append.
			if err := chopFile(jpath, 7); err != nil {
				return err
			}
			logf("  [%s] tore the journal tail", name)
		case 4:
			// Garbage tail: the disk wrote junk past the valid prefix.
			if err := appendFile(jpath, []byte("XXXX corrupt entry\nmore junk")); err != nil {
				return err
			}
			logf("  [%s] appended garbage to the journal", name)
		}
	}
	if kills < rounds {
		return fmt.Errorf("only %d kills, want >= %d", kills, rounds)
	}

	// The resumed artifacts must be byte-identical to the baseline.
	resDir := filepath.Join(dir, "resumed")
	if err := resumed.Write(resDir); err != nil {
		return err
	}
	if err := compareDirs(baseDir, resDir); err != nil {
		return err
	}
	fmt.Printf("soak: %s ok — %d kills (incl. torn + corrupt journal), artifacts byte-identical\n", name, kills)
	return nil
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
