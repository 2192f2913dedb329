package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"memcontention/internal/checkpoint"
	"memcontention/internal/sweep"
)

// localPoll is how often an idle in-process worker rescans the shards.
// Its peers are goroutines of the same process, so waiting out the lease
// heartbeat (3s by default) would dwarf a whole campaign.
const localPoll = 5 * time.Millisecond

// RunLocal runs the campaign in opts.Dir on cfg.Workers in-process lease
// workers (0: GOMAXPROCS) and merges it: exactly what that many memworker
// processes followed by RemoteMerge would do, in one process. A fresh
// directory is pinned to one shard per worker; an existing one keeps its
// manifest's shard count, so a resumed campaign may use a different
// worker count (at most one per shard). The first hard worker error
// cancels the other workers and is returned without merging. Units the
// workers quarantined are written, sorted, to quarantine.jsonl (empty on
// a clean run) and returned as a *QuarantineError, also without merging.
func RunLocal(cfg Config, opts RemoteOptions, names []string) (*ShardResult, error) {
	if opts.Dir == "" {
		return nil, errors.New("campaign: in-process campaign needs a directory (RemoteOptions.Dir)")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = sweep.DefaultWorkers()
	}
	if _, err := LoadManifest(opts.Dir); opts.Shards == 0 && errors.Is(err, os.ErrNotExist) {
		opts.Shards = workers
	}
	if opts.Poll <= 0 {
		opts.Poll = localPoll
	}
	// Pin (or verify) the manifest once, before the workers race to it.
	cfg, opts, man, _, err := remoteSetup(cfg, opts, names)
	if err != nil {
		return nil, err
	}
	// A worker beyond the shard count could never hold a lease: in one
	// process no peer dies, so no shard is released before it is done.
	workers = min(workers, man.Shards)

	ctx, cancel := context.WithCancel(cfg.ctx())
	defer cancel()
	wcfg := cfg
	wcfg.Context = ctx
	res := &ShardResult{Workers: make([]*RemoteReport, workers)}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wopts := opts
		if opts.Lease.Owner.Token != "" {
			// One injected identity would make every worker the owner
			// of every lease; each worker needs its own token.
			wopts.Lease.Owner.Token = fmt.Sprintf("%s-%d", opts.Lease.Owner.Token, w)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res.Workers[w], errs[w] = RemoteWorker(wcfg, wopts, man.Platforms)
			if errs[w] != nil && !errors.Is(errs[w], ErrQuarantined) {
				cancel()
			}
		}(w)
	}
	wg.Wait()

	var hard error
	var quar []QuarantineRecord
	for _, err := range errs {
		var qerr *QuarantineError
		switch {
		case errors.As(err, &qerr):
			quar = append(quar, qerr.Records...)
		case err != nil && (hard == nil || checkpoint.IsCanceled(hard) && !checkpoint.IsCanceled(err)):
			hard = err // the cause, not the cancellations it triggered
		}
	}
	// Every worker that reached a poison unit quarantined it; report
	// each unit once.
	sortQuarantine(quar)
	quar = slices.CompactFunc(quar, func(a, b QuarantineRecord) bool { return a.Key == b.Key })
	path := filepath.Join(opts.Dir, QuarantineFile)
	if err := writeQuarantine(path, quar); err != nil && hard == nil {
		hard = err
	}
	if hard != nil {
		return res, hard
	}
	if len(quar) > 0 {
		return res, &QuarantineError{Records: quar, Path: path}
	}
	merged, err := RemoteMerge(cfg, opts, man.Platforms)
	if err != nil {
		return res, err
	}
	res.Artifacts = merged.Artifacts
	return res, nil
}
