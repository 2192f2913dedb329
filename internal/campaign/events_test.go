package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestEventEncodeDecodeRoundTrip(t *testing.T) {
	events := []Event{
		{Seq: 1, TimeUnixNano: 100, Type: EventWorkerJoin, Worker: "w1", Shard: WorkerScope},
		{Seq: 2, TimeUnixNano: 200, Type: EventLeaseClaim, Worker: "w1", Shard: 3, Epoch: 2},
		{Seq: 3, TimeUnixNano: 300, Type: EventUnitQuarantine, Worker: "w1", Shard: 0, Key: "unit/x", Detail: "boom"},
	}
	var buf bytes.Buffer
	for _, e := range events {
		line, err := EncodeEvent(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
	}
	got, dropped := DecodeEvents(buf.Bytes())
	if dropped != 0 {
		t.Fatalf("dropped %d lines from a clean journal", dropped)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, events)
	}
}

func TestEncodeEventRejectsInvalid(t *testing.T) {
	bad := []Event{
		{TimeUnixNano: 1, Type: EventWorkerJoin, Worker: "w", Shard: 0},          // seq 0
		{Seq: 1, TimeUnixNano: 1, Worker: "w", Shard: 0},                         // empty type
		{Seq: 1, TimeUnixNano: 1, Type: EventWorkerJoin, Shard: 0},               // empty worker
		{Seq: 1, TimeUnixNano: 1, Type: EventWorkerJoin, Worker: "w", Shard: -2}, // shard below WorkerScope
	}
	for i, e := range bad {
		if _, err := EncodeEvent(e); err == nil {
			t.Errorf("case %d: invalid event %+v encoded", i, e)
		}
	}
}

func TestDecodeEventsTornTailEndsPrefix(t *testing.T) {
	a, _ := EncodeEvent(Event{Seq: 1, TimeUnixNano: 1, Type: EventWorkerJoin, Worker: "w", Shard: WorkerScope})
	b, _ := EncodeEvent(Event{Seq: 2, TimeUnixNano: 2, Type: EventLeaseClaim, Worker: "w", Shard: 0, Epoch: 1})
	img := append(append([]byte{}, a...), b...)

	// A torn final line (no newline) is dropped, the prefix survives.
	torn := append(append([]byte{}, img...), []byte("deadbeef {torn")...)
	events, dropped := DecodeEvents(torn)
	if len(events) != 2 || dropped != 1 {
		t.Fatalf("torn tail: %d events, %d dropped, want 2 and 1", len(events), dropped)
	}

	// A corrupt middle line ends the valid prefix; everything after is
	// dropped even if well formed.
	corrupt := append(append([]byte{}, a...), []byte("00000000 {\"bad\":1}\n")...)
	corrupt = append(corrupt, b...)
	events, dropped = DecodeEvents(corrupt)
	if len(events) != 1 || dropped != 2 {
		t.Fatalf("corrupt middle: %d events, %d dropped, want 1 and 2", len(events), dropped)
	}
}

func TestMergeEventsTotalOrder(t *testing.T) {
	s1 := []Event{
		{Seq: 1, TimeUnixNano: 10, Type: EventWorkerJoin, Worker: "b", Shard: WorkerScope},
		{Seq: 2, TimeUnixNano: 30, Type: EventWorkerDrain, Worker: "b", Shard: WorkerScope},
	}
	s2 := []Event{
		{Seq: 1, TimeUnixNano: 10, Type: EventWorkerJoin, Worker: "a", Shard: WorkerScope},
		{Seq: 2, TimeUnixNano: 20, Type: EventLeaseClaim, Worker: "a", Shard: 0, Epoch: 1},
	}
	want := []Event{s2[0], s1[0], s2[1], s1[1]}
	if got := MergeEvents(s1, s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("merge order:\ngot  %+v\nwant %+v", got, want)
	}
	// Determinism: stream order must not matter.
	if got := MergeEvents(s2, s1); !reflect.DeepEqual(got, want) {
		t.Fatalf("merge is sensitive to stream order")
	}
}

func TestEventLogEmitResumeAndTornTruncate(t *testing.T) {
	dir := t.TempDir()
	clk := newRemoteClock()
	log, err := OpenEventLog(dir, "w1", clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Emit(EventWorkerJoin, WorkerScope, 0, "", ""); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if err := log.Emit(EventLeaseClaim, 2, 1, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, EventsDir, "w1.jsonl")

	// Simulate a crash mid-append: garbage without a trailing newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("0badc0de {\"to"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Reopen: tail truncated, sequence resumes past the valid prefix.
	log, err = OpenEventLog(dir, "w1", clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Emit(EventWorkerDrain, WorkerScope, 0, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events, dropped := DecodeEvents(data)
	if dropped != 0 {
		t.Fatalf("reopened journal still has %d undecodable lines", dropped)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3: %+v", len(events), events)
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
	}
	if events[2].Type != EventWorkerDrain {
		t.Fatalf("resumed event type %s, want %s", events[2].Type, EventWorkerDrain)
	}
}

func TestEventLogRejectsUnsafeWorkerIDs(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"", ".", "..", "a/b"} {
		if _, err := OpenEventLog(dir, id, nil); err == nil {
			t.Errorf("worker id %q accepted", id)
		}
	}
}

// TestEventJournalByteDeterministic proves the event journal's
// determinism claim: two writers emitting the same events at the same
// clock readings produce byte-identical journals.
func TestEventJournalByteDeterministic(t *testing.T) {
	images := make([][]byte, 2)
	for i := range images {
		dir := t.TempDir()
		clk := newRemoteClock()
		log, err := OpenEventLog(dir, "w1", clk.Now)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 3; s++ {
			clk.Advance(250 * time.Millisecond)
			if err := log.Emit(EventLeaseClaim, s, uint64(s+1), "", ""); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, EventsDir, "w1.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		images[i] = data
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Fatalf("event journals differ across identical runs:\n%q\n%q", images[0], images[1])
	}
}

func TestReadEventsMissingDirIsEmpty(t *testing.T) {
	events, err := ReadEvents(t.TempDir())
	if err != nil || events != nil {
		t.Fatalf("missing events dir: %v events, err %v; want empty, nil", events, err)
	}
}

// FuzzDecodeEvents asserts the decoder never panics and that the valid
// prefix it reports always re-encodes losslessly.
func FuzzDecodeEvents(f *testing.F) {
	line, _ := EncodeEvent(Event{Seq: 1, TimeUnixNano: 42, Type: EventWorkerJoin, Worker: "w", Shard: WorkerScope})
	f.Add([]byte{})
	f.Add(line)
	f.Add(append(append([]byte{}, line...), []byte("00000000 garbage\n")...))
	f.Add([]byte("0badc0de {\"seq\":1}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, _ := DecodeEvents(data)
		for _, e := range events {
			if e.validate() != nil {
				t.Fatalf("decoder surfaced invalid event %+v", e)
			}
			if _, err := EncodeEvent(e); err != nil {
				t.Fatalf("decoded event does not re-encode: %v", err)
			}
		}
	})
}
