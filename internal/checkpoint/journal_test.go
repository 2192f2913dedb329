package checkpoint

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"memcontention/internal/obs"
)

type payload struct {
	N int     `json:"n"`
	F float64 `json:"f"`
}

func openT(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// payloads decodes the journal file at path into its payloads by key.
func payloads(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range Decode(data).Entries {
		out[e.Key] = string(e.Payload)
	}
	return out
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "units.journal")
	j := openT(t, path)
	if j.Len() != 0 || j.LoadedEntries() != 0 {
		t.Fatalf("fresh journal not empty: len=%d loaded=%d", j.Len(), j.LoadedEntries())
	}
	want := payload{N: 7, F: 3.14159}
	if err := j.Record("unit|a", want); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("unit|b", payload{N: 8}); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Fatalf("len = %d after two records, want 2", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: both entries must come back, byte-exact.
	j2 := openT(t, path)
	if j2.Len() != 2 || j2.LoadedEntries() != 2 || j2.RecoveredBytes() != 0 {
		t.Fatalf("reopen: len=%d loaded=%d recovered=%d", j2.Len(), j2.LoadedEntries(), j2.RecoveredBytes())
	}
	got := payloads(t, path)
	if len(got) != 2 || got["unit|a"] != `{"n":7,"f":3.14159}` || got["unit|b"] != `{"n":8,"f":0}` {
		t.Fatalf("payloads = %v, want unit|a and unit|b as recorded", got)
	}
	var a payload
	if err := json.Unmarshal([]byte(got["unit|a"]), &a); err != nil || a != want {
		t.Fatalf("unit|a decodes to %+v (%v), want %+v", a, err, want)
	}
}

func TestJournalDuplicateRecordIsNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "units.journal")
	j := openT(t, path)
	if err := j.Record("k", payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	size1 := fileSize(t, path)
	if err := j.Record("k", payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	if size2 := fileSize(t, path); size2 != size1 {
		t.Fatalf("duplicate record grew the journal: %d -> %d", size1, size2)
	}
	if j.Len() != 1 {
		t.Fatalf("len = %d, want 1", j.Len())
	}
}

func TestJournalRecoversTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "units.journal")
	j := openT(t, path)
	for _, k := range []string{"a", "b", "c"} {
		if err := j.Record(k, payload{N: len(k)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Simulate a crash mid-append: chop the last line in half.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-9]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := openT(t, path)
	if got := payloads(t, path); j2.Len() != 2 || len(got) != 2 || got["a"] == "" || got["b"] == "" {
		t.Fatalf("after torn tail: len=%d, file holds %v", j2.Len(), got)
	}
	if j2.RecoveredBytes() == 0 {
		t.Fatal("recovery not reported")
	}
	// The torn bytes must be gone from disk, and appends must extend a
	// valid prefix.
	if err := j2.Record("c", payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3 := openT(t, path)
	if j3.Len() != 3 || j3.RecoveredBytes() != 0 {
		t.Fatalf("after re-append: len=%d recovered=%d", j3.Len(), j3.RecoveredBytes())
	}
}

func TestJournalRecoversCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "units.journal")
	j := openT(t, path)
	if err := j.Record("good", payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("deadbeef {\"key\":\"evil\"}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := openT(t, path)
	if got := payloads(t, path); j2.Len() != 1 || len(got) != 1 || got["good"] == "" {
		t.Fatalf("corrupt line accepted: len=%d, file holds %v", j2.Len(), got)
	}
	if j2.RecoveredBytes() == 0 {
		t.Fatal("corruption not reported")
	}
}

func TestNilJournalIsFree(t *testing.T) {
	var j *Journal
	if j.Len() != 0 || j.LoadedEntries() != 0 || j.RecoveredBytes() != 0 || j.Path() != "" {
		t.Fatal("nil journal not inert")
	}
	if err := j.Record("x", 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j.SetRegistry(obs.NewRegistry()) // must not panic
}

func TestJournalMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "u.journal")
	j := openT(t, path)
	reg := obs.NewRegistry()
	j.SetRegistry(reg)
	if err := j.Record("a", 1); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"memcontention_checkpoint_entries_written_total 1",
		"memcontention_checkpoint_entries 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestJournalConcurrentRecord(t *testing.T) {
	j := openT(t, filepath.Join(t.TempDir(), "u.journal"))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := strings.Repeat("k", i%3+1) + string(rune('0'+w))
				if err := j.Record(key, i); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	path := j.Path()
	j.Close()
	j2 := openT(t, path)
	if j2.RecoveredBytes() != 0 {
		t.Fatalf("concurrent appends produced %d invalid bytes", j2.RecoveredBytes())
	}
	if j2.Len() != 24 {
		t.Fatalf("len = %d, want 24 distinct keys", j2.Len())
	}
}

func TestDecodeCountsDuplicatesAndDropped(t *testing.T) {
	var img []byte
	for _, e := range []Entry{{Key: "a"}, {Key: "b"}, {Key: "a"}} {
		line, err := EncodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		img = append(img, line...)
	}
	img = append(img, []byte("garbage line\nmore garbage\ntorn")...)
	res := Decode(img)
	if len(res.Entries) != 2 || res.Duplicates != 1 {
		t.Fatalf("entries=%d dup=%d", len(res.Entries), res.Duplicates)
	}
	if res.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3 (two garbage lines + torn tail)", res.Dropped)
	}
	if int(res.Valid) >= len(img) {
		t.Fatal("valid prefix should stop before the garbage")
	}
}

func TestEncodeEntryRejectsEmptyKey(t *testing.T) {
	if _, err := EncodeEntry(Entry{}); err == nil {
		t.Fatal("empty key encoded")
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestEntryLineMatchesEncodeEntry: the line Record appends around an
// already-encoded payload is byte for byte the line EncodeEntry writes
// by re-marshaling the entry, for random keys and payloads: HTML-sensitive
// and control characters, non-ASCII and invalid UTF-8, nested values,
// and an empty payload, which the entry omits.
func TestEntryLineMatchesEncodeEntry(t *testing.T) {
	alphabet := []string{"a", "Z", "9", "|", " ", "<", ">", "&", `"`, `\`, "\n", "\t", "\x00", "\x7f", "é", "δ", "日本", "\u2028", "\xff", "🙂"}
	r := rand.New(rand.NewSource(1))
	text := func() string {
		var b strings.Builder
		for n := r.Intn(12); n > 0; n-- {
			b.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		return b.String()
	}
	for i := 0; i < 2000; i++ {
		key := text()
		if key == "" {
			key = "k"
		}
		var v any
		switch r.Intn(5) {
		case 0:
			v = nil
		case 1:
			v = text()
		case 2:
			v = map[string]any{text(): r.NormFloat64(), text(): []any{text(), r.Intn(100), nil, true}}
		case 3:
			v = payload{N: r.Int(), F: r.ExpFloat64()}
		}
		var data []byte
		if v != nil {
			var err error
			if data, err = json.Marshal(v); err != nil {
				t.Fatal(err)
			}
		}
		want, err := EncodeEntry(Entry{Key: key, Payload: data})
		if err != nil {
			t.Fatal(err)
		}
		if got := entryLine(key, data); !bytes.Equal(got, want) {
			t.Fatalf("key %q, payload %s:\nentryLine   %q\nEncodeEntry %q", key, data, got, want)
		}
	}
}
