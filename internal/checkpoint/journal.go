package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"memcontention/internal/atomicio"
	"memcontention/internal/obs"
)

// Entry is one journaled experiment unit: a content key and the unit's
// result payload (JSON).
type Entry struct {
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// EncodeEntry renders one journal line: an IEEE CRC32 of the compact JSON
// record (8 hex digits), a space, the record, a newline. The CRC lets the
// decoder distinguish a torn or bit-rotted line from a valid one.
func EncodeEntry(e Entry) ([]byte, error) {
	if e.Key == "" {
		return nil, fmt.Errorf("checkpoint: empty entry key")
	}
	rec, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode entry %q: %w", e.Key, err)
	}
	return FrameLine(rec), nil
}

// FrameLine wraps one record in the journal line framing: an IEEE CRC32
// of the record as 8 hex digits, a space, the record, a newline.
func FrameLine(rec []byte) []byte {
	return frame(append(make([]byte, 9, len(rec)+10), rec...))
}

// frame completes a line whose record follows 9 bytes left free: it
// writes the record's CRC and the space into them and appends the
// newline.
func frame(line []byte) []byte {
	const hex = "0123456789abcdef"
	crc := crc32.ChecksumIEEE(line[9:])
	for i := 7; i >= 0; i-- {
		line[i] = hex[crc&15]
		crc >>= 4
	}
	line[8] = ' '
	return append(line, '\n')
}

// entryLine is EncodeEntry's line for Entry{key, payload}, where payload
// is compact JSON as json.Marshal writes it, so that json.Marshal of the
// entry would copy it unchanged: the record is appended around the
// payload instead of re-encoding it.
func entryLine(key string, payload []byte) []byte {
	const head, mid = `{"key":`, `,"payload":`
	quoted, _ := json.Marshal(key) // a string always encodes
	line := make([]byte, 9, 9+len(head)+len(quoted)+len(mid)+len(payload)+2)
	line = append(append(line, head...), quoted...)
	if len(payload) > 0 {
		line = append(append(line, mid...), payload...)
	}
	return frame(append(line, '}'))
}

// UnframeLine validates the framing and CRC of one line (without its
// trailing newline) and returns the enclosed record. It never panics on
// any input; a malformed or corrupt line reports ok=false.
func UnframeLine(line []byte) ([]byte, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, false
	}
	crc, ok := parseHex8(line[:8])
	if !ok {
		return nil, false
	}
	rec := line[9:]
	if crc32.ChecksumIEEE(rec) != crc {
		return nil, false
	}
	return rec, true
}

// DecodeResult is the outcome of decoding a journal image.
type DecodeResult struct {
	// Entries are the decoded units in append order, deduplicated by
	// key (the first occurrence wins — later duplicates are by
	// construction identical re-records of the same unit).
	Entries []Entry
	// Valid is the byte length of the journal prefix that decoded
	// cleanly. Anything beyond it is a torn tail or corruption and is
	// truncated away on Open.
	Valid int64
	// Duplicates counts entries skipped because their key was already
	// present.
	Duplicates int
	// Dropped counts lines (complete or torn) discarded after the
	// valid prefix.
	Dropped int
}

// Decode parses a journal image. It never panics on any input: a
// truncated final line, a corrupt CRC, invalid JSON, an empty key or a
// stray blank line all end the valid prefix there, and everything after
// is reported as dropped. Entries with duplicate keys are skipped.
func Decode(data []byte) DecodeResult {
	var res DecodeResult
	seen := make(map[string]bool)
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Torn tail: an append crashed before the newline.
			break
		}
		e, ok := decodeLine(data[off : off+nl])
		if !ok {
			break
		}
		off += nl + 1
		if seen[e.Key] {
			res.Duplicates++
			continue
		}
		seen[e.Key] = true
		res.Entries = append(res.Entries, e)
	}
	res.Valid = int64(off)
	// Count the discarded remainder for diagnostics: every complete line
	// plus a final torn fragment, if any.
	if rest := data[off:]; len(rest) > 0 {
		res.Dropped = bytes.Count(rest, []byte{'\n'})
		if rest[len(rest)-1] != '\n' {
			res.Dropped++
		}
	}
	return res
}

// decodeLine validates one journal line (without its newline).
func decodeLine(line []byte) (Entry, bool) {
	rec, ok := UnframeLine(line)
	if !ok {
		return Entry{}, false
	}
	var e Entry
	if err := json.Unmarshal(rec, &e); err != nil {
		return Entry{}, false
	}
	if e.Key == "" {
		return Entry{}, false
	}
	return e, true
}

// parseHex8 strictly parses exactly eight lowercase-or-uppercase hex
// digits (no signs, prefixes or partial matches).
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

// Journal is an open checkpoint journal: it appends units and remembers
// their keys, not their payloads, which are read back from the file with
// Decode. It is safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	path string
	// memlint:guard mu
	f *os.File
	// memlint:guard mu
	keys map[string]struct{}
	// memlint:guard mu
	loaded int
	// memlint:guard mu
	dropped int64
	m       instruments
}

// instruments are the journal's telemetry hooks; nil instruments (no
// registry attached) record nothing.
type instruments struct {
	loaded    *obs.Counter
	written   *obs.Counter
	recovered *obs.Counter
	entries   *obs.Gauge
}

// Open creates or resumes the journal at path. A torn or corrupt tail
// (crash during an append, bit rot) is detected, reported by
// RecoveredBytes, and truncated away so subsequent appends extend a valid
// prefix.
func Open(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open %s: %w", path, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	res := Decode(data)
	if res.Valid < int64(len(data)) {
		if err := f.Truncate(res.Valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("checkpoint: recover %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("checkpoint: recover %s: %w", path, err)
		}
	}
	if _, err := f.Seek(res.Valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: seek %s: %w", path, err)
	}
	// Make the journal file itself durable: if this Open created it, the
	// directory entry must survive power loss too. Best effort on
	// filesystems that cannot fsync directories is not acceptable here —
	// a journal that vanishes silently breaks the resume contract.
	if err := atomicio.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	j := &Journal{
		path:    path,
		f:       f,
		keys:    make(map[string]struct{}, len(res.Entries)),
		loaded:  len(res.Entries),
		dropped: int64(len(data)) - res.Valid,
	}
	for _, e := range res.Entries {
		j.keys[e.Key] = struct{}{}
	}
	return j, nil
}

// SetRegistry attaches telemetry instruments. A nil registry (or nil
// journal) keeps instrumentation disabled at zero cost.
func (j *Journal) SetRegistry(r *obs.Registry) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.m = instruments{
		loaded:    r.Counter("memcontention_checkpoint_entries_loaded_total", "Journal entries recovered from disk at open.", nil),
		written:   r.Counter("memcontention_checkpoint_entries_written_total", "Journal entries durably appended.", nil),
		recovered: r.Counter("memcontention_checkpoint_recovered_bytes_total", "Torn or corrupt journal bytes truncated away at open.", nil),
		entries:   r.Gauge("memcontention_checkpoint_entries", "Entries currently in the journal.", nil),
	}
	j.m.loaded.Add(float64(j.loaded))
	j.m.recovered.Add(float64(j.dropped))
	j.m.entries.Set(float64(len(j.keys)))
}

// Path reports the journal's file path ("" for a nil journal).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Len reports the number of entries.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.keys)
}

// LoadedEntries reports how many entries were recovered from disk at Open
// (before any Record of this process).
func (j *Journal) LoadedEntries() int {
	if j == nil {
		return 0
	}
	//memlint:allow lockguard — loaded is written once in Open before the journal is shared, then read-only
	return j.loaded
}

// RecoveredBytes reports how many torn or corrupt trailing bytes Open
// truncated away.
func (j *Journal) RecoveredBytes() int64 {
	if j == nil {
		return 0
	}
	//memlint:allow lockguard — dropped is written once in Open before the journal is shared, then read-only
	return j.dropped
}

// Record durably appends one completed unit: the line is written and
// fsynced before Record returns, so a kill at any later instant cannot
// lose the unit. Recording a key that is already journaled is a no-op
// (the result is deterministic, so the payloads are identical). A nil
// journal records nothing.
func (j *Journal) Record(key string, v any) error {
	if j == nil {
		return nil
	}
	if key == "" {
		return fmt.Errorf("checkpoint: empty entry key")
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: payload of %q: %w", key, err)
	}
	line := entryLine(key, payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.keys[key]; ok {
		return nil
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("checkpoint: append %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: sync %s: %w", j.path, err)
	}
	j.keys[key] = struct{}{}
	j.m.written.Inc()
	j.m.entries.Set(float64(len(j.keys)))
	return nil
}

// Close releases the journal file. Entries already recorded stay durable;
// the journal must not be used afterwards. Closing a nil journal is a
// no-op.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", j.path, err)
	}
	return nil
}
