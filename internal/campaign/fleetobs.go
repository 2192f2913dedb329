package campaign

import (
	"errors"
	"fmt"
	"sync/atomic"

	"memcontention/internal/checkpoint"
	"memcontention/internal/lease"
	"memcontention/internal/obs"
)

// fleetObs is one lease worker's voice in the campaign event journal
// (events/<worker>.jsonl), the only record a worker writes about itself:
// the fleet view (CollectFleet) derives the worker's state, counters and
// throughput from these events and from the lease files. Every lease
// worker speaks through it, memworker processes and RunLocal's
// goroutines alike, so memtop sees one vocabulary regardless of how the
// campaign runs.
//
// Observability must never kill a campaign: every emission failure is
// counted (surfaced as RemoteReport.ObsErrors) instead of propagating.
// The unit loop and the heartbeat goroutine emit concurrently; EventLog
// serializes the appends and the counter is atomic.
type fleetObs struct {
	log  *EventLog
	errs atomic.Int64
}

// newFleetObs opens the event journal of one worker of the campaign in
// dir and announces the worker with a worker-join event naming its lease
// owner. The owner token is the writer id; it must be path-safe (lease
// owner tokens are hex). A nil clock uses obs.WallClock.
func newFleetObs(dir string, owner lease.Owner, clock obs.Clock) (*fleetObs, error) {
	log, err := OpenEventLog(dir, owner.Token, clock)
	if err != nil {
		return nil, err
	}
	fo := &fleetObs{log: log}
	fo.emit(EventWorkerJoin, WorkerScope, 0, "", owner.String())
	return fo, nil
}

// emit appends one fleet event, counting (never propagating) failures.
func (fo *fleetObs) emit(t EventType, shard int, epoch uint64, key, detail string) {
	if err := fo.log.Emit(t, shard, epoch, key, detail); err != nil {
		fo.errs.Add(1)
	}
}

// claimed records an acquired lease: a lease-claim event, or an
// orphan-takeover naming the deposed owner when it was decodable.
func (fo *fleetObs) claimed(h *lease.Held) {
	t, detail := EventLeaseClaim, ""
	if h.TookOver() {
		t = EventOrphanTakeover
		if dep := h.Deposed(); dep.Token != "" {
			detail = dep.String()
		}
	}
	fo.emit(t, h.Shard(), h.Epoch(), "", detail)
}

// finish records how the worker exited — drained (quarantines
// included), canceled or failed — and closes the event journal. A
// SIGKILLed worker never gets here: its last lifecycle event stays the
// join, and the fleet view reads it as a running worker whose signs of
// life have stopped.
func (fo *fleetObs) finish(err error) {
	var qerr *QuarantineError
	switch {
	case err == nil:
		fo.emit(EventWorkerDrain, WorkerScope, 0, "", "")
	case errors.As(err, &qerr):
		fo.emit(EventWorkerDrain, WorkerScope, 0, "", fmt.Sprintf("%d units quarantined", len(qerr.Records)))
	case checkpoint.IsCanceled(err):
		fo.emit(EventWorkerStop, WorkerScope, 0, "", "")
	default:
		fo.emit(EventWorkerFail, WorkerScope, 0, "", err.Error())
	}
	if err := fo.log.Close(); err != nil {
		fo.errs.Add(1)
	}
}

// errors reports how many event writes failed.
func (fo *fleetObs) errors() int { return int(fo.errs.Load()) }
