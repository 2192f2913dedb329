package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// encodeLines renders entries as a journal image.
func encodeLines(t testing.TB, entries ...Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range entries {
		line, err := EncodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
	}
	return buf.Bytes()
}

func TestShardSetPathsAndOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b", "shards")
	set, err := OpenShardSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := set.Paths()
	if err != nil || len(paths) != 0 {
		t.Fatalf("fresh set has paths %v (err %v)", paths, err)
	}
	// Open shards out of order; Paths lists them sorted.
	for _, i := range []int{2, 0} {
		j, err := set.OpenEpochShard(i, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Record("k"+string(rune('a'+i)), i); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Stray files in the directory are not shard journals, not even one
	// framed like a journal name (ParseShardFile is the one rule).
	for _, name := range []string{"quarantine.jsonl", "shard-0000.bak.ckpt"} {
		if err := os.WriteFile(filepath.Join(dir, name), encodeLines(t, Entry{Key: "stray"}), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	paths, err = set.Paths()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{set.EpochShardPath(0, 1), set.EpochShardPath(2, 1)}
	if len(paths) != 2 || paths[0] != want[0] || paths[1] != want[1] {
		t.Fatalf("Paths() = %v, want %v", paths, want)
	}
	if files, err := set.ShardFiles(0); err != nil || len(files) != 1 || files[0] != want[0] {
		t.Fatalf("ShardFiles(0) = %v (%v), want %v", files, err, want[:1])
	}
	// ShardPaths is the same listing, and it creates nothing.
	if got, err := ShardPaths(dir); err != nil || len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ShardPaths = %v (%v), want %v", got, err, want)
	}
	missing := filepath.Join(t.TempDir(), "missing")
	if _, err := ShardPaths(missing); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("ShardPaths of a missing directory: %v, want os.ErrNotExist", err)
	}
	if _, err := os.Stat(missing); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("ShardPaths created %s (%v)", missing, err)
	}
	if _, err := set.OpenEpochShard(-1, 1); err == nil {
		t.Fatal("negative shard index accepted")
	}
	if _, err := set.OpenEpochShard(5, 0); err == nil || !strings.Contains(err.Error(), "epoch 0 for shard 5") {
		t.Fatalf("epoch 0 of shard 5: %v, want an error naming shard 5", err)
	}
	if _, err := OpenShardSet(""); err == nil {
		t.Fatal("empty shard-set directory accepted")
	}
}

func TestMergeShardsDedupeSortAndTolerance(t *testing.T) {
	e1 := Entry{Key: "b", Payload: []byte(`1`)}
	e2 := Entry{Key: "a", Payload: []byte(`{"x":2}`)}
	e3 := Entry{Key: "c", Payload: []byte(`[3]`)}
	img1 := encodeLines(t, e1, e2)
	// Shard 2 re-records e2 identically (a re-run after takeover), adds e3, and
	// ends in a torn tail that merging must tolerate.
	img2 := append(encodeLines(t, e2, e3), []byte("7f000000 {\"key\":\"torn")...)

	entries, err := MergeShards([][]byte{img1, img2, nil, []byte("garbage\n")})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("merged keys = %v, want [a b c]", keys)
	}
}

func TestMergeShardsConflictFailsLoudly(t *testing.T) {
	a := encodeLines(t, Entry{Key: "k", Payload: []byte(`1`)})
	b := encodeLines(t, Entry{Key: "k", Payload: []byte(`2`)})
	_, err := MergeShards([][]byte{a, b})
	if !errors.Is(err, ErrShardConflict) {
		t.Fatalf("err = %v, want ErrShardConflict", err)
	}
}

func TestMergeShardFilesOrderInsensitive(t *testing.T) {
	dir := t.TempDir()
	set, err := OpenShardSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		j, err := set.OpenEpochShard(i, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Record("shared", "same"); err != nil {
			t.Fatal(err)
		}
		if err := j.Record(set.EpochShardPath(i, 1), i); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := set.Paths()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := MergeShardFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("merged %d entries, want 4", len(entries))
	}
	if i := slices.IndexFunc(entries, func(e Entry) bool { return e.Key == "shared" }); i < 0 || string(entries[i].Payload) != `"same"` {
		t.Fatalf("merge lost the shared entry: %+v", entries)
	}

	// The merge depends only on the entry set: any shard order gives the
	// same entries in the same order.
	rev, err := MergeShardFiles([]string{paths[2], paths[0], paths[1]})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(entries, rev) {
		t.Fatalf("merged entries depend on shard order:\n%+v\n%+v", entries, rev)
	}

	if _, err := MergeShardFiles([]string{filepath.Join(dir, "missing.ckpt")}); err == nil {
		t.Fatal("missing shard file accepted")
	}
}

// FuzzMergeShards drives the shard merge with arbitrary shard images —
// the path a resumed parallel campaign takes over whatever its killed
// workers left on disk. It must never panic, must stay deterministic in
// the image *set* (order-insensitive modulo conflicts), and its output
// must re-merge to itself (idempotence).
func FuzzMergeShards(f *testing.F) {
	good1 := encodeLines(f, Entry{Key: "eval|henri|seed=1", Payload: []byte(`{"n":7}`)})
	good2 := encodeLines(f, Entry{Key: "curve|dahu|pl=0/1", Payload: []byte(`[1,2,3]`)})
	overlap := encodeLines(f,
		Entry{Key: "eval|henri|seed=1", Payload: []byte(`{"n":7}`)},
		Entry{Key: "unit|netbench|henri", Payload: []byte(`25`)},
	)
	conflict := encodeLines(f, Entry{Key: "eval|henri|seed=1", Payload: []byte(`{"n":8}`)})
	f.Add(good1, good2, []byte{})
	f.Add(good1, overlap, good2)                       // duplicate keys, equal payloads
	f.Add(good1, conflict, []byte{})                   // duplicate keys, conflicting payloads
	f.Add(good1[:len(good1)-5], good2, []byte("junk")) // torn tail + garbage
	f.Add([]byte("\n\n"), []byte("zz not a journal"), good2)

	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		images := [][]byte{a, b, c}
		entries, err := MergeShards(images)
		if err != nil {
			if !errors.Is(err, ErrShardConflict) {
				t.Fatalf("merge failed with non-conflict error: %v", err)
			}
			return
		}
		seen := make(map[string]bool, len(entries))
		for i, e := range entries {
			if e.Key == "" {
				t.Fatal("merged entry with empty key")
			}
			if seen[e.Key] {
				t.Fatalf("duplicate key %q survived merging", e.Key)
			}
			seen[e.Key] = true
			if i > 0 && entries[i-1].Key >= e.Key {
				t.Fatalf("merged entries not strictly sorted: %q >= %q", entries[i-1].Key, e.Key)
			}
		}
		// Idempotence: the merged image merges to itself.
		var buf bytes.Buffer
		for _, e := range entries {
			line, err := EncodeEntry(e)
			if err != nil {
				t.Fatalf("merged entry does not re-encode: %v", err)
			}
			buf.Write(line)
		}
		again, err := MergeShards([][]byte{buf.Bytes()})
		if err != nil {
			t.Fatalf("re-merge failed: %v", err)
		}
		if len(again) != len(entries) {
			t.Fatalf("re-merge changed entry count: %d != %d", len(again), len(entries))
		}
	})
}
