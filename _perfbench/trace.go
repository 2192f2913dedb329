package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call from the benchmark's own code into a layer's public
// function. Name is "<package>.<function>"; Arg says which input it ran
// on.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int64  `json:"op"` // -1: set-up or replay, not a timed op
	Name   string `json:"name"`
	Arg    string `json:"arg,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untimed and timed paths share one code path.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(op int64, parent int, name, arg string) int {
	if t == nil {
		return 0
	}
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Arg: arg, Start: start})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(op int64, parent int, name, arg string, fn func() error) error {
	id := t.begin(op, parent, name, arg)
	err := fn()
	t.end(id)
	return err
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover (overlapping children are counted once).
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.End-s.Start-covered(s.Start, s.End, children[s.ID])) / 1e9
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(lo, hi int64, intervals [][2]int64) int64 {
	iv := make([][2]int64, 0, len(intervals))
	for _, c := range intervals {
		a, b := max(c[0], lo), min(c[1], hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := int64(0), lo
	for _, c := range iv {
		if c[0] > end {
			end = c[0]
		}
		if c[1] > end {
			total += c[1] - end
			end = c[1]
		}
	}
	return total
}

// spanTotals sums span durations (seconds) and counts per name over the
// spans of timed ops.
func spanTotals(spans []span) (secs map[string]float64, calls map[string]int) {
	secs, calls = make(map[string]float64), make(map[string]int)
	for _, s := range spans {
		if s.Op < 0 {
			continue
		}
		secs[s.Name] += float64(s.End-s.Start) / 1e9
		calls[s.Name]++
	}
	return secs, calls
}

// layerShares prints the self time of each called function per traced
// op and its share of the traced ops' total time.
func layerShares(spans []span) string {
	var timed []span
	total, ops := 0.0, 0
	for _, s := range spans {
		if s.Op >= 0 {
			timed = append(timed, s)
			if s.Parent == 0 {
				total += float64(s.End-s.Start) / 1e9
				ops++
			}
		}
	}
	self := selfTimes(timed)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  self %-28s %10.4f ms/op  %s of op time\n", n, self[n]/float64(ops)*1e3,
			ratio{num: self[n], base: total})
	}
	return b.String()
}
