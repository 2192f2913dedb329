// Package lease coordinates multi-process campaigns over a shared
// campaign directory: durable per-shard lease files that carry owner
// identity, a monotonically increasing fencing epoch and a heartbeat
// timestamp. Workers acquire a shard's lease before executing its
// experiment units, renew it on a heartbeat interval while they run, and
// release it when the shard is drained. A worker that stops renewing —
// killed, hung, partitioned — goes stale after TTL+grace (at once when
// it was a process of the observer's host that has exited) and any
// other process may take the shard over with a bumped epoch; the deposed
// owner, should it come back to life, discovers the higher epoch at its
// next renewal (ErrFenced) and stops. Until then its journal appends
// land in an epoch-suffixed shard file that nobody else writes, so a
// zombie can never corrupt the live journal (see checkpoint.ShardSet).
//
// Lease files use the same single-line CRC32 framing as checkpoint
// journals, and the decoder treats *any* malformed content — torn
// writes, garbage, wild epochs or timestamps — as an invalid lease,
// which Acquire handles as stale rather than fatal: lease files are
// coordination state, not results, and a corrupt one must never wedge a
// campaign.
//
// The package is inherently nondeterministic (wall-clock heartbeats,
// host/pid/random-token identity) and is exempted from memlint's
// determinism check; it must never feed bytes into a reproducible
// artifact.
//
// No command uses the package since the lease campaign (the memworker
// fleet and paperfigs -shards) was removed; it stays, with its tests,
// until its own removal (see ROADMAP.md).
package lease

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"time"
)

// Owner identifies the process holding (or claiming) a lease: host and
// pid for humans reading a stuck campaign dir, and a random token that
// makes the identity unforgeable across pid reuse.
type Owner struct {
	Host  string `json:"host"`
	PID   int    `json:"pid"`
	Token string `json:"token"`
}

// String renders the owner for diagnostics.
func (o Owner) String() string {
	return fmt.Sprintf("%s/%d/%s", o.Host, o.PID, o.Token)
}

// SelfOwner builds the identity of the current process: hostname, pid
// and a fresh 8-byte random token.
func SelfOwner() (Owner, error) {
	host, err := os.Hostname()
	if err != nil {
		// Identity still works without a resolvable hostname; the token
		// alone is what fencing compares.
		host = "unknown"
	}
	var tok [8]byte
	if _, err := rand.Read(tok[:]); err != nil {
		return Owner{}, fmt.Errorf("lease: owner token: %w", err)
	}
	return Owner{Host: host, PID: os.Getpid(), Token: hex.EncodeToString(tok[:])}, nil
}

// Lease is the durable claim on one shard: who owns it, under which
// fencing epoch, and when the owner last proved it was alive.
type Lease struct {
	Shard int    `json:"shard"`
	Epoch uint64 `json:"epoch"`
	Owner Owner  `json:"owner"`
	// HeartbeatUnixNano is the owner's last renewal instant on the
	// manager's clock (wall clock in production). Staleness is judged
	// against it: now - heartbeat > TTL+grace means the owner is gone.
	HeartbeatUnixNano int64 `json:"heartbeat_unix_nano"`
}

// Heartbeat returns the heartbeat instant as a time.Time.
func (l Lease) Heartbeat() time.Time { return time.Unix(0, l.HeartbeatUnixNano) }

// Encode renders a lease file image: an IEEE CRC32 of the compact JSON
// record (8 hex digits), a space, the record, a newline — the same
// framing as checkpoint journal lines, so torn and bit-rotted files are
// detected rather than trusted.
func Encode(l Lease) ([]byte, error) {
	if err := validLease(l); err != nil {
		return nil, fmt.Errorf("lease: encode: %w", err)
	}
	rec, err := json.Marshal(l)
	if err != nil {
		return nil, fmt.Errorf("lease: encode shard %d: %w", l.Shard, err)
	}
	img := make([]byte, 0, len(rec)+10)
	img = fmt.Appendf(img, "%08x ", crc32.ChecksumIEEE(rec))
	img = append(img, rec...)
	img = append(img, '\n')
	return img, nil
}

// ErrInvalid reports a lease image that failed to decode — torn write,
// corruption, or out-of-range fields. Callers must treat it as "no
// usable lease" (stale), never as fatal.
var ErrInvalid = errors.New("lease: invalid lease file")

// Decode parses a lease file image. It never panics on any input;
// malformed framing, a CRC mismatch, trailing bytes, invalid JSON or
// out-of-range fields (negative shard, epoch 0, epoch or timestamp
// beyond representable bounds) all return an error wrapping ErrInvalid.
func Decode(data []byte) (Lease, error) {
	if len(data) < 10 || data[8] != ' ' || data[len(data)-1] != '\n' {
		return Lease{}, fmt.Errorf("%w: bad framing (%d bytes)", ErrInvalid, len(data))
	}
	crc, ok := parseHex8(data[:8])
	if !ok {
		return Lease{}, fmt.Errorf("%w: non-hex checksum", ErrInvalid)
	}
	rec := data[9 : len(data)-1]
	if crc32.ChecksumIEEE(rec) != crc {
		return Lease{}, fmt.Errorf("%w: checksum mismatch", ErrInvalid)
	}
	var l Lease
	dec := json.NewDecoder(bytes.NewReader(rec))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		return Lease{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if dec.More() {
		return Lease{}, fmt.Errorf("%w: trailing content after record", ErrInvalid)
	}
	if err := validLease(l); err != nil {
		return Lease{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return l, nil
}

// validLease bounds the fields a decoded (or about-to-be-encoded) lease
// may carry. Epochs saturating the uint64 range would wedge takeover
// (epoch+1 overflows); timestamps beyond what time.Unix can represent
// would corrupt staleness math.
func validLease(l Lease) error {
	switch {
	case l.Shard < 0:
		return fmt.Errorf("negative shard %d", l.Shard)
	case l.Epoch == 0:
		return errors.New("epoch 0 (epochs start at 1)")
	case l.Epoch >= math.MaxUint64/2:
		return fmt.Errorf("epoch %d out of range", l.Epoch)
	case l.Owner.Token == "":
		return errors.New("empty owner token")
	default:
		return nil
	}
}

// parseHex8 strictly parses exactly eight hex digits.
func parseHex8(b []byte) (uint32, bool) {
	var v uint32
	for _, c := range b {
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint32(c-'A') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}
