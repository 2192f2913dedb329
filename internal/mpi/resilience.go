package mpi

import (
	"errors"
	"fmt"
)

// Resilience configures how the MPI layer survives an imperfect fabric
// (see internal/faults). The zero value reproduces the historical
// semantics: no timeouts, no retries — a lost message or a missing peer
// ends in a deadlock diagnosis instead of a structured operation error.
type Resilience struct {
	// OpTimeout bounds, in simulated seconds, how long a Wait (and
	// therefore a blocking Send or Recv) may block before failing with
	// an OpError wrapping ErrTimeout. 0 disables timeouts.
	OpTimeout float64
	// MaxRetries is how many times a message the fabric dropped is
	// resent before the operation fails with an OpError wrapping
	// simnet.ErrMessageDropped. 0 disables retries.
	MaxRetries int
	// RetryBackoff is the simulated delay before the first resend; it
	// doubles on every further attempt (exponential backoff). When
	// retries are enabled and no backoff is given, DefaultRetryBackoff
	// applies.
	RetryBackoff float64
}

// DefaultRetryBackoff is the initial resend delay when retries are
// enabled without an explicit backoff (1 ms of simulated time).
const DefaultRetryBackoff = 1e-3

// backoff reports the resend delay before attempt n (1-based), doubling
// per attempt.
func (r Resilience) backoff(attempt int) float64 {
	b := r.RetryBackoff
	if b <= 0 {
		b = DefaultRetryBackoff
	}
	for i := 1; i < attempt; i++ {
		b *= 2
	}
	return b
}

// Validate rejects non-finite or negative settings.
func (r Resilience) Validate() error {
	if r.OpTimeout < 0 || r.OpTimeout != r.OpTimeout {
		return fmt.Errorf("mpi: OpTimeout must be non-negative and finite, got %v", r.OpTimeout)
	}
	if r.MaxRetries < 0 {
		return fmt.Errorf("mpi: MaxRetries must be non-negative, got %d", r.MaxRetries)
	}
	if r.RetryBackoff < 0 || r.RetryBackoff != r.RetryBackoff {
		return fmt.Errorf("mpi: RetryBackoff must be non-negative and finite, got %v", r.RetryBackoff)
	}
	return nil
}

// SetResilience installs the world's resilience policy. Call it before
// Launch; the policy applies to every rank.
func (w *World) SetResilience(r Resilience) error {
	if err := r.Validate(); err != nil {
		return err
	}
	w.res = r
	return nil
}

// ErrTimeout reports an operation that exceeded Resilience.OpTimeout.
var ErrTimeout = errors.New("mpi: operation timed out")

// OpError is a structured MPI failure: which rank, which operation, at
// what simulated time, and the underlying cause (use errors.Is/As for
// ErrTimeout, simnet.ErrMessageDropped or *simnet.DownError).
type OpError struct {
	// Rank is the world rank whose operation failed.
	Rank int
	// Op describes the operation, e.g. "Recv(src=1, tag=7)".
	Op string
	// Time is the simulated time of the failure in seconds.
	Time float64
	// Err is the underlying cause.
	Err error
}

func (e *OpError) Error() string {
	return fmt.Sprintf("mpi: rank %d: %s failed at t=%.6fs: %v", e.Rank, e.Op, e.Time, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *OpError) Unwrap() error { return e.Err }

// opError builds a structured failure at the current simulated time.
func (w *World) opError(rank int, op string, cause error) *OpError {
	return &OpError{Rank: rank, Op: op, Time: w.sim.Now(), Err: cause}
}

// rankName renders a rank id, with -1 (wildcards) as "any".
func rankName(r int) string {
	if r < 0 {
		return "any"
	}
	return fmt.Sprint(r)
}

// tagName renders a tag, with -1 (AnyTag) as "any".
func tagName(t int) string {
	if t < 0 {
		return "any"
	}
	return fmt.Sprint(t)
}

// opName describes the request's operation for errors and wait states.
func (r *Request) opName() string {
	if r.isRecv {
		return fmt.Sprintf("Recv(src=%s, tag=%s)", rankName(r.peer), tagName(r.tag))
	}
	return fmt.Sprintf("Send(dst=%s, tag=%s)", rankName(r.peer), tagName(r.tag))
}

// String implements fmt.Stringer so a Request can be a lazy wait reason
// (engine.Proc.SetWaitStringer) without rendering on the happy path.
func (r *Request) String() string { return r.opName() }
