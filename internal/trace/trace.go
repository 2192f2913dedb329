// Package trace records what happens inside a simulation: flow lifetimes,
// rate changes, causal spans and per-stream-kind accounting. A Recorder
// implements engine.FlowObserver and obs.SpanRecorder, so attaching one
// to a cluster (or to a single flow manager) produces one timeline that
// interleaves flow events with the span forest. It can be rendered as
// text, summarised, exported as JSONL, or analysed by internal/prof — the
// simulated equivalent of the execution traces the paper's authors used in
// their companion study of interferences.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"memcontention/internal/memsys"
	"memcontention/internal/obs"
	"memcontention/internal/units"
)

// EventKind labels timeline entries.
type EventKind int

// Event kinds.
const (
	// FlowStart marks a transfer beginning.
	FlowStart EventKind = iota
	// FlowEnd marks a transfer draining.
	FlowEnd
	// RateChange marks a re-solve of the active rates.
	RateChange
	// Mark is a user annotation (phase boundaries etc.).
	Mark
	// Fault is a fault-injection event (link degraded, node crashed,
	// message dropped, ...) recorded by the faults layer.
	Fault
	// Checkpoint marks a graceful interruption: the run was canceled
	// here and flushed its telemetry.
	Checkpoint
	// SpanBegin opens a causal span (an MPI operation, a fabric transfer,
	// a memory flow, a compute phase).
	SpanBegin
	// SpanEnd closes a causal span.
	SpanEnd
	// Instant is a point-in-time annotation carrying resource
	// attribution (unlike Mark, which is a bare label). Traces written
	// by earlier versions may carry it; no producer emits it today.
	Instant
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case FlowStart:
		return "flow-start"
	case FlowEnd:
		return "flow-end"
	case RateChange:
		return "rate-change"
	case Mark:
		return "mark"
	case Fault:
		return "fault"
	case Checkpoint:
		return "checkpoint"
	case SpanBegin:
		return "span-begin"
	case SpanEnd:
		return "span-end"
	case Instant:
		return "instant"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// TruncatedLabel is the Mark label recorded when MaxEvents drops events:
// analyses must refuse to attribute bandwidth on a truncated timeline.
const TruncatedLabel = "truncated"

// FlowRate is one flow's solver-granted (and limiter-applied) rate at a
// RateChange, in GB/s. Rate lists are sorted by flow id so encodings are
// deterministic.
type FlowRate struct {
	Flow int     `json:"flow"`
	GBps float64 `json:"gbps"`
}

// Event is one timeline entry.
type Event struct {
	At   float64 // simulated seconds
	Kind EventKind
	// Machine is the simulated machine the event belongs to for flow and
	// rate kinds (0 for single-machine runs; span kinds carry theirs in
	// Attrs.Machine).
	Machine int
	// FlowID identifies the flow for FlowStart/FlowEnd.
	FlowID int
	// Stream describes the flow (FlowStart only).
	Stream memsys.Stream
	// Bytes is the transfer size (FlowStart) in bytes.
	Bytes float64
	// AvgRate is the lifetime average rate (FlowEnd), GB/s.
	AvgRate float64
	// Label is the Mark/Fault/Checkpoint annotation, and the span name
	// for SpanBegin/Instant.
	Label string
	// ActiveRates is the number of concurrently active flows at a
	// RateChange.
	ActiveFlows int
	// Rates are the applied per-flow rates at a RateChange, sorted by
	// flow id (empty when the producer does not report them).
	Rates []FlowRate
	// Span identifies the causal span (SpanBegin/SpanEnd; the owning
	// span for Instant, 0 when none).
	Span obs.SpanID
	// Parent is the enclosing span (SpanBegin; 0 for roots).
	Parent obs.SpanID
	// Cat is the span category ("mpi", "transfer", "flow", "compute",
	// "rank", ...) for SpanBegin/Instant.
	Cat string
	// Attrs is the resource attribution (SpanBegin/Instant).
	Attrs obs.SpanAttrs
}

// flowKey identifies one flow across the cluster: flow ids are allocated
// per machine, so the pair is the unique identity.
type flowKey struct {
	machine, id int
}

// flowRecord aggregates one flow's life.
type flowRecord struct {
	key      flowKey
	stream   memsys.Stream
	bytes    float64
	start    float64
	end      float64
	finished bool
	avgRate  float64
}

// Recorder collects events. The zero value is an empty, usable recorder
// (storage is allocated lazily), so a Mark or a render before any flow
// starts is always safe. Recorders are not safe for concurrent use — the
// engine is cooperative, so this is never needed.
//
// A Recorder is the one trace hook a simulation needs: it implements
// engine.FlowObserver, obs.SpanRecorder and the fault layer's Marker
// interface. Span ids are handed out in call order, so with the
// deterministic engine two identical runs produce byte-identical traces.
type Recorder struct {
	events []Event
	// flows holds every flow's record in start order, so aggregates sum
	// in a fixed order; open indexes the unfinished ones by identity.
	flows []*flowRecord
	open  map[flowKey]*flowRecord
	// span is the last span id handed out or ingested.
	span obs.SpanID
	// MaxEvents bounds memory (0 = unbounded); once exceeded, further
	// RateChange events are dropped (lifecycle events are always kept).
	// The first drop appends one Mark event labelled TruncatedLabel and
	// sets Truncated, so downstream analyses can refuse incomplete
	// timelines instead of silently computing on them.
	MaxEvents int
	truncated bool
	// dropped counts events lost to MaxEvents (nil until SetRegistry).
	dropped *obs.Counter
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// SetRegistry registers the recorder's instruments in reg: the
// memcontention_trace_dropped_total counter tracks events lost to the
// MaxEvents bound. A nil registry detaches.
func (r *Recorder) SetRegistry(reg *obs.Registry) {
	if r == nil {
		return
	}
	r.dropped = reg.Counter("memcontention_trace_dropped_total", "Trace events dropped by the Recorder's MaxEvents bound.", nil)
}

// Truncated reports whether the MaxEvents bound has dropped any events:
// a truncated timeline must not be used for bandwidth attribution or
// critical-path analysis.
func (r *Recorder) Truncated() bool {
	if r == nil {
		return false
	}
	return r.truncated
}

// Append records one event, maintaining the per-flow bookkeeping, the
// span-id allocator and the MaxEvents bound. It is the single ingestion
// point: the FlowObserver and SpanRecorder methods and trace stitching
// all funnel through it, so a replayed event stream reconstructs the
// same recorder state as the original run.
func (r *Recorder) Append(ev Event) {
	if r == nil {
		return
	}
	switch ev.Kind {
	case FlowStart:
		key := flowKey{ev.Machine, ev.FlowID}
		fr := &flowRecord{key: key, stream: ev.Stream, bytes: ev.Bytes, start: ev.At}
		if r.open == nil {
			r.open = make(map[flowKey]*flowRecord)
		}
		r.flows = append(r.flows, fr)
		r.open[key] = fr
	case FlowEnd:
		key := flowKey{ev.Machine, ev.FlowID}
		if fr := r.open[key]; fr != nil {
			fr.end, fr.finished, fr.avgRate = ev.At, true, ev.AvgRate
			delete(r.open, key)
		}
	case RateChange:
		if r.MaxEvents > 0 && len(r.events) >= r.MaxEvents {
			r.drop(ev.At)
			return
		}
	}
	if ev.Span > r.span {
		r.span = ev.Span
	}
	r.events = append(r.events, ev)
}

// Ingest replays a recorded event stream through Append, e.g. to load a
// trace file back into a recorder for analysis (memprof -load). The
// span-id allocator advances past every ingested span, so spans recorded
// afterwards never collide with the stitched ones.
func (r *Recorder) Ingest(events []Event) {
	for _, ev := range events {
		r.Append(ev)
	}
}

// drop accounts one event lost to MaxEvents, marking the timeline
// truncated on the first loss.
func (r *Recorder) drop(at float64) {
	r.dropped.Inc()
	if !r.truncated {
		r.truncated = true
		r.events = append(r.events, Event{At: at, Kind: Mark, Label: TruncatedLabel})
	}
}

// FlowStarted implements engine.FlowObserver.
func (r *Recorder) FlowStarted(machine, id int, stream memsys.Stream, bytes, at float64) {
	r.Append(Event{At: at, Kind: FlowStart, Machine: machine, FlowID: id, Stream: stream, Bytes: bytes})
}

// FlowFinished implements engine.FlowObserver.
func (r *Recorder) FlowFinished(machine, id int, at, avgRate float64) {
	r.Append(Event{At: at, Kind: FlowEnd, Machine: machine, FlowID: id, AvgRate: avgRate})
}

// RatesResolved implements engine.FlowObserver. The rates are the
// limiter-applied per-flow rates (GB/s), recorded sorted by flow id so
// the timeline is deterministic.
func (r *Recorder) RatesResolved(machine int, at float64, rates map[int]float64) {
	if r == nil {
		return
	}
	if r.MaxEvents > 0 && len(r.events) >= r.MaxEvents {
		r.drop(at) // don't build the rate list for a dropped event
		return
	}
	ev := Event{At: at, Kind: RateChange, Machine: machine, ActiveFlows: len(rates)}
	if len(rates) > 0 {
		ev.Rates = make([]FlowRate, 0, len(rates))
		for id, gbps := range rates {
			ev.Rates = append(ev.Rates, FlowRate{Flow: id, GBps: gbps})
		}
		sort.Slice(ev.Rates, func(i, j int) bool { return ev.Rates[i].Flow < ev.Rates[j].Flow })
	}
	r.Append(ev)
}

// BeginSpan implements obs.SpanRecorder: it opens a span under parent
// (0 = root) and returns its id, the next one in call order (0 on a nil
// recorder).
func (r *Recorder) BeginSpan(parent obs.SpanID, name, category string, at float64, attrs obs.SpanAttrs) obs.SpanID {
	if r == nil {
		return 0
	}
	r.Append(Event{
		At: at, Kind: SpanBegin,
		Span: r.span + 1, Parent: parent,
		Label: name, Cat: category, Attrs: attrs,
	})
	return r.span
}

// EndSpan implements obs.SpanRecorder.
func (r *Recorder) EndSpan(id obs.SpanID, at float64) {
	if r == nil || id == 0 {
		return
	}
	r.Append(Event{At: at, Kind: SpanEnd, Span: id})
}

// MarkAt adds a user annotation at the given simulated time.
func (r *Recorder) MarkAt(at float64, label string) {
	r.Append(Event{At: at, Kind: Mark, Label: label})
}

// CheckpointAt records a graceful-interruption marker at the given
// simulated time: the run was canceled there, and the trace holds
// everything recorded up to the cut.
func (r *Recorder) CheckpointAt(at float64, label string) {
	r.Append(Event{At: at, Kind: Checkpoint, Label: label})
}

// FaultAt records a fault-injection event at the given simulated time.
// It implements the faults.Marker interface, so a Recorder attached to a
// cluster also captures the fault timeline.
func (r *Recorder) FaultAt(at float64, label string) {
	r.Append(Event{At: at, Kind: Fault, Label: label})
}

// Events returns the recorded timeline in insertion order (which is
// simulated-time order, the engine being deterministic).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// EventCount reports the number of recorded events.
func (r *Recorder) EventCount() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Summary aggregates the recording per stream kind.
type Summary struct {
	Flows        int
	Finished     int
	Bytes        units.ByteSize
	BusyTime     float64 // sum of flow lifetimes, seconds
	MeanRate     float64 // bytes-weighted mean rate, GB/s
	MinRate      float64
	MaxRate      float64
	FirstStart   float64
	LastEnd      float64
	RateResolves int
	PeakActive   int
}

// Summarize computes per-kind statistics over finished flows. Sums
// accumulate in flow-start order, so repeated calls — and a recorder
// rebuilt by Ingest — agree bit for bit.
func (r *Recorder) Summarize(kind memsys.StreamKind) Summary {
	if r == nil {
		return Summary{MinRate: 0}
	}
	var s Summary
	s.MinRate = -1
	first := true
	var weightedRate, totalBytes float64
	for _, fr := range r.flows {
		if fr.stream.Kind != kind {
			continue
		}
		s.Flows++
		if first || fr.start < s.FirstStart {
			s.FirstStart = fr.start
			first = false
		}
		if !fr.finished {
			continue
		}
		s.Finished++
		s.Bytes += units.ByteSize(fr.bytes)
		s.BusyTime += fr.end - fr.start
		if fr.end > s.LastEnd {
			s.LastEnd = fr.end
		}
		weightedRate += fr.avgRate * fr.bytes
		totalBytes += fr.bytes
		if s.MinRate < 0 || fr.avgRate < s.MinRate {
			s.MinRate = fr.avgRate
		}
		if fr.avgRate > s.MaxRate {
			s.MaxRate = fr.avgRate
		}
	}
	if totalBytes > 0 {
		s.MeanRate = weightedRate / totalBytes
	}
	if s.MinRate < 0 {
		s.MinRate = 0
	}
	for _, ev := range r.events {
		if ev.Kind == RateChange {
			s.RateResolves++
			if ev.ActiveFlows > s.PeakActive {
				s.PeakActive = ev.ActiveFlows
			}
		}
	}
	return s
}

// Timeline renders the recording as aligned text, one line per event,
// limited to the first max events (0 = all).
func (r *Recorder) Timeline(max int) string {
	if r == nil || len(r.events) == 0 {
		return "(no events)\n"
	}
	var b strings.Builder
	events := r.events
	if max > 0 && len(events) > max {
		events = events[:max]
	}
	for _, ev := range events {
		fmt.Fprintf(&b, "%12.6f ms  %-11s", ev.At*1e3, ev.Kind)
		switch ev.Kind {
		case FlowStart:
			fmt.Fprintf(&b, "  #%d %s node %d, %s", ev.FlowID, ev.Stream.Kind, ev.Stream.Node, units.ByteSize(ev.Bytes))
		case FlowEnd:
			fmt.Fprintf(&b, "  #%d at %.2f GB/s", ev.FlowID, ev.AvgRate)
		case RateChange:
			fmt.Fprintf(&b, "  %d active", ev.ActiveFlows)
		case Mark, Fault, Checkpoint:
			fmt.Fprintf(&b, "  %s", ev.Label)
		case SpanBegin:
			fmt.Fprintf(&b, "  [%d] %s (%s)", ev.Span, ev.Label, ev.Cat)
		case SpanEnd:
			fmt.Fprintf(&b, "  [%d]", ev.Span)
		case Instant:
			fmt.Fprintf(&b, "  %s", ev.Label)
		}
		b.WriteByte('\n')
	}
	if max > 0 && len(r.events) > max {
		fmt.Fprintf(&b, "... %d more events\n", len(r.events)-max)
	}
	return b.String()
}

// Gantt renders per-flow lifetime bars (sorted by start time) scaled to
// width characters, for quick visual inspection of overlap structure.
func (r *Recorder) Gantt(width int) string {
	if r == nil {
		return "(no flows)\n"
	}
	if width < 10 {
		width = 10
	}
	var bars []*flowRecord
	var tMax float64
	for _, fr := range r.flows {
		if !fr.finished {
			continue
		}
		bars = append(bars, fr)
		if fr.end > tMax {
			tMax = fr.end
		}
	}
	if tMax == 0 || len(bars) == 0 {
		return "(no finished flows)\n"
	}
	sort.SliceStable(bars, func(i, j int) bool {
		if bars[i].start != bars[j].start {
			return bars[i].start < bars[j].start
		}
		if bars[i].key.machine != bars[j].key.machine {
			return bars[i].key.machine < bars[j].key.machine
		}
		return bars[i].key.id < bars[j].key.id
	})
	var b strings.Builder
	for _, fr := range bars {
		startCol := int(fr.start / tMax * float64(width))
		endCol := int(fr.end / tMax * float64(width))
		if endCol <= startCol {
			endCol = startCol + 1
		}
		glyph := byte('=')
		if fr.stream.Kind == memsys.KindComm {
			glyph = '~'
		}
		fmt.Fprintf(&b, "#%-4d |%s%s%s| %s\n",
			fr.key.id,
			strings.Repeat(" ", startCol),
			strings.Repeat(string(glyph), endCol-startCol),
			strings.Repeat(" ", width-endCol),
			units.ByteSize(fr.bytes))
	}
	return b.String()
}
