package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"memcontention/internal/atomicio"
)

// shardPrefix and shardSuffix frame the file names of per-shard journals
// inside a ShardSet directory: shard-0000.e1.ckpt, shard-0001.e3.ckpt, ...
const (
	shardPrefix = "shard-"
	shardSuffix = ".ckpt"
)

// ShardSet manages the per-shard journals of one sharded campaign: a
// directory holding one shard-NNNN.eK.ckpt journal file per (shard,
// lease epoch), each with the full CRC32 + torn-tail-recovery durability
// of a single Journal. The set is the unit of resume — a killed campaign
// reopens the same directory and the union of all shard journals tells
// it which experiment units are already done, wherever they ran.
type ShardSet struct {
	dir string
}

// OpenShardSet creates (durably, fsyncing the new directory chain) or
// reopens the shard-journal directory.
func OpenShardSet(dir string) (*ShardSet, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty shard-set directory")
	}
	if err := atomicio.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: shard set %s: %w", dir, err)
	}
	return &ShardSet{dir: dir}, nil
}

// EpochShardPath returns the journal path of shard i under fencing
// epoch e: shard-0003.e7.ckpt. Lease campaigns journal into
// epoch-suffixed files — each (shard, epoch) pair has exactly one owner
// ever (internal/lease claims epochs O_EXCL), so no two workers can
// interleave appends into the same journal, and a deposed zombie's
// late appends land in its own dead-epoch file. Paths lists epoch files
// alongside any plain shard journals and MergeShards unions them all:
// campaigns are deterministic in (seed, config), so duplicate keys
// across epochs carry byte-identical payloads and merge cleanly.
func (s *ShardSet) EpochShardPath(i int, e uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%04d.e%d%s", shardPrefix, i, e, shardSuffix))
}

// OpenEpochShard opens (or creates) the epoch-e journal of shard i,
// recovering any torn tail exactly like Open.
func (s *ShardSet) OpenEpochShard(i int, e uint64) (*Journal, error) {
	if i < 0 {
		return nil, fmt.Errorf("checkpoint: negative shard index %d", i)
	}
	if e == 0 {
		return nil, fmt.Errorf("checkpoint: epoch 0 for shard %d (epochs start at 1)", i)
	}
	return Open(s.EpochShardPath(i, e))
}

// ParseShardFile decomposes a shard-journal file name into its shard
// index and epoch (0 for a plain, epoch-less shard-NNNN.ckpt name: no
// current writer produces one, but such journals still count and merge).
// Non-journal names report ok=false.
func ParseShardFile(name string) (shard int, epoch uint64, ok bool) {
	if !strings.HasPrefix(name, shardPrefix) || !strings.HasSuffix(name, shardSuffix) {
		return 0, 0, false
	}
	core := strings.TrimSuffix(strings.TrimPrefix(name, shardPrefix), shardSuffix)
	idx, rest, hasEpoch := strings.Cut(core, ".e")
	n, err := strconv.Atoi(idx)
	if err != nil || n < 0 {
		return 0, 0, false
	}
	if !hasEpoch {
		return n, 0, true
	}
	e, err := strconv.ParseUint(rest, 10, 64)
	if err != nil || e == 0 {
		return 0, 0, false
	}
	return n, e, true
}

// ShardFiles lists the existing journal files of shard i (the plain
// journal plus every epoch file), sorted by name.
func (s *ShardSet) ShardFiles(i int) ([]string, error) {
	paths, err := s.Paths()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, p := range paths {
		if n, _, ok := ParseShardFile(filepath.Base(p)); ok && n == i {
			out = append(out, p)
		}
	}
	return out, nil
}

// MaxEpoch reports the highest epoch among shard i's existing journal
// files (0 when only the plain journal, or nothing, exists). Remote
// workers feed it to lease.Manager.Acquire as the epoch floor: even if
// the lease file was corrupted or deleted, a surviving zombie journal
// forces the takeover epoch past the zombie's, so the new owner can
// never share a journal file with it.
func (s *ShardSet) MaxEpoch(i int) (uint64, error) {
	paths, err := s.Paths()
	if err != nil {
		return 0, err
	}
	var max uint64
	for _, p := range paths {
		if n, e, ok := ParseShardFile(filepath.Base(p)); ok && n == i && e > max {
			max = e
		}
	}
	return max, nil
}

// Paths lists the existing shard journal files in shard order. A resumed
// campaign may find more shards than it has workers (the previous run was
// wider); their entries still count as done and still merge.
func (s *ShardSet) Paths() ([]string, error) { return ShardPaths(s.dir) }

// ShardPaths lists the shard journal files in dir, sorted by name, without
// creating anything: every file whose name ParseShardFile accepts, and no
// other (a stray shard-0000.bak.ckpt is not a journal).
func ShardPaths(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: shard set %s: %w", dir, err)
	}
	var paths []string
	for _, e := range entries {
		if _, _, ok := ParseShardFile(e.Name()); ok && !e.IsDir() {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	return paths, nil
}

// MergeShards reads every given shard-journal image tolerantly (exactly
// like Open: a torn or corrupt tail ends that shard's valid prefix and
// the remainder is ignored) and merges the entries by key. The same key
// appearing in several shards is legal — a unit re-runs when a deposed
// owner finishes it into its dead epoch file while the new owner runs it
// again — but only when every copy carries byte-identical payloads;
// campaigns are deterministic in (seed, config), so differing payloads
// mean corruption or a nondeterminism bug and merging must fail loudly
// rather than pick one.
//
// The merged entries are returned sorted by key, so the merge depends
// only on the entry set, not on shard count, scheduling or completion
// order.
func MergeShards(images [][]byte) ([]Entry, error) {
	merged := make(map[string]Entry)
	var keys []string
	for i, img := range images {
		res := Decode(img)
		for _, e := range res.Entries {
			prev, ok := merged[e.Key]
			if !ok {
				merged[e.Key] = e
				keys = append(keys, e.Key)
				continue
			}
			if !bytes.Equal(prev.Payload, e.Payload) {
				return nil, fmt.Errorf("checkpoint: shard %d: conflicting payloads for key %q: %w", i, e.Key, ErrShardConflict)
			}
		}
	}
	sort.Strings(keys)
	entries := make([]Entry, 0, len(keys))
	for _, k := range keys {
		entries = append(entries, merged[k])
	}
	return entries, nil
}

// ErrShardConflict reports two shard journals holding different payloads
// for the same unit key — impossible for a deterministic campaign, so it
// signals journal corruption that CRCs happened to miss, or a real
// nondeterminism bug.
var ErrShardConflict = errors.New("checkpoint: shard journals disagree")

// MergeShardFiles reads and merges the given shard journal files (see
// MergeShards). Unreadable files are errors; unreadable *content* is
// recovered tolerantly.
func MergeShardFiles(paths []string) ([]Entry, error) {
	images := make([][]byte, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: merge %s: %w", p, err)
		}
		images[i] = data
	}
	return MergeShards(images)
}
