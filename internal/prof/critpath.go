// Package prof is the contention attribution profiler: it turns the raw
// event stream of a simulated run into causal spans (rank → MPI operation
// → fabric transfer → memory flow), per-link bandwidth-share timelines,
// and a critical-path report naming the chain of waits that bounds the
// makespan — the simulated counterpart of the interference analyses the
// paper's authors performed on their testbed traces.
//
// The recording side is trace.Recorder, installed on a cluster with
// Cluster.WithObserver: it is the flow observer and the causal span
// recorder of every layer, so flow events and spans share one
// time-ordered timeline that round-trips through the JSONL format. All
// analyses here (Timeline, SpanTree, WritePerfetto) work on plain
// []trace.Event, so they run equally on a live recording or on a trace
// file loaded from disk.
package prof

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"memcontention/internal/obs"
	"memcontention/internal/trace"
)

// spanNode is one reconstructed causal span.
type spanNode struct {
	id       obs.SpanID
	parent   obs.SpanID
	name     string
	cat      string
	attrs    obs.SpanAttrs
	begin    float64
	end      float64
	ended    bool
	children []*spanNode
}

// SpanTree is the causal span forest of a recorded run: rank roots with
// their MPI operations, fabric transfers and memory flows nested below.
type SpanTree struct {
	nodes map[obs.SpanID]*spanNode
	roots []*spanNode
	// Makespan is the latest event time seen while building.
	Makespan float64
}

// BuildSpanTree reconstructs the span forest from a recorded event
// stream. Spans still open at the end of the trace are closed at the
// makespan (they bounded the run). Duplicate span ids are an error — they
// mean a corrupt stitch.
func BuildSpanTree(events []trace.Event) (*SpanTree, error) {
	st := &SpanTree{nodes: make(map[obs.SpanID]*spanNode)}
	for i := range events {
		ev := &events[i]
		if ev.At > st.Makespan {
			st.Makespan = ev.At
		}
		switch ev.Kind {
		case trace.SpanBegin:
			if _, dup := st.nodes[ev.Span]; dup {
				return nil, fmt.Errorf("prof: duplicate span id %d at t=%v", ev.Span, ev.At)
			}
			n := &spanNode{
				id: ev.Span, parent: ev.Parent,
				name: ev.Label, cat: ev.Cat, attrs: ev.Attrs,
				begin: ev.At,
			}
			st.nodes[ev.Span] = n
			if p := st.nodes[ev.Parent]; p != nil {
				p.children = append(p.children, n)
			} else {
				st.roots = append(st.roots, n)
			}
		case trace.SpanEnd:
			if n := st.nodes[ev.Span]; n != nil && !n.ended {
				n.end, n.ended = ev.At, true
			}
		}
	}
	for _, n := range st.nodes {
		if !n.ended {
			n.end = st.Makespan
		}
	}
	return st, nil
}

// SpanCount reports the number of reconstructed spans.
func (st *SpanTree) SpanCount() int { return len(st.nodes) }

// Step is one link of the critical path: the span that bounded progress
// over [From, To]. Steps are contiguous and in time order; their union is
// the full interval from the critical root's begin to the makespan.
type Step struct {
	Span     obs.SpanID
	Name     string
	Cat      string
	Attrs    obs.SpanAttrs
	From, To float64
}

// Duration is the critical-path time attributed to this step.
func (s *Step) Duration() float64 { return s.To - s.From }

const cpEps = 1e-12

// CriticalPath walks the span forest backwards from the latest-ending
// root: at every point in time it descends into the child that was still
// running closest to the frontier, attributing uncovered time to the
// enclosing span itself (its own latency or wait). The result is the
// chain of waits bounding the makespan, in forward time order.
func (st *SpanTree) CriticalPath() []Step {
	root := st.criticalRoot()
	if root == nil {
		return nil
	}
	var steps []Step
	st.walk(root, root.end, &steps)
	// The walk emits steps backwards in time; present them forwards.
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	return steps
}

// criticalRoot picks the latest-ending root (smallest id on ties, for
// determinism).
func (st *SpanTree) criticalRoot() *spanNode {
	var root *spanNode
	for _, r := range st.roots {
		if root == nil || r.end > root.end+cpEps ||
			(math.Abs(r.end-root.end) <= cpEps && r.id < root.id) {
			root = r
		}
	}
	return root
}

// walk attributes the interval [n.begin, t] inside span n: descend into
// the child whose activity reaches closest to the frontier t, credit the
// gap above it to n itself, and continue below the child's begin with
// n's earlier children.
func (st *SpanTree) walk(n *spanNode, t float64, steps *[]Step) {
	for t > n.begin+cpEps {
		var best *spanNode
		bestEnd := math.Inf(-1)
		for _, c := range n.children {
			if c.begin >= t-cpEps {
				continue // starts at/after the frontier: not on this path
			}
			ce := math.Min(c.end, t)
			switch {
			case ce > bestEnd+cpEps:
				best, bestEnd = c, ce
			case ce > bestEnd-cpEps && best != nil &&
				(c.begin > best.begin || (c.begin == best.begin && c.id > best.id)):
				// Tie on end: prefer the later-started (innermost) child.
				best, bestEnd = c, ce
			}
		}
		if best == nil {
			*steps = append(*steps, Step{Span: n.id, Name: n.name, Cat: n.cat, Attrs: n.attrs, From: n.begin, To: t})
			return
		}
		if t-bestEnd > cpEps {
			// Nothing below n covered (bestEnd, t]: n's own time.
			*steps = append(*steps, Step{Span: n.id, Name: n.name, Cat: n.cat, Attrs: n.attrs, From: bestEnd, To: t})
		}
		st.walk(best, bestEnd, steps)
		t = best.begin
	}
}

// Attribution is one category's share of the critical path.
type Attribution struct {
	// Key is the span category, refined by stream kind where present
	// (e.g. "flow/comm", "transfer/comm", "mpi", "rank").
	Key     string
	Seconds float64
	// Share is the fraction of the critical path's total length.
	Share float64
}

// AttributeSteps groups critical-path time by span category (refined by
// stream kind), sorted by descending share — the "where did the makespan
// go" summary.
func AttributeSteps(steps []Step) []Attribution {
	if len(steps) == 0 {
		return nil
	}
	var total float64
	byKey := make(map[string]float64)
	for i := range steps {
		key := steps[i].Cat
		if key == "" {
			key = "(uncategorised)"
		}
		if s := steps[i].Attrs.Stream; s != "" {
			key += "/" + s
		}
		d := steps[i].Duration()
		byKey[key] += d
		total += d
	}
	out := make([]Attribution, 0, len(byKey))
	for key, sec := range byKey {
		a := Attribution{Key: key, Seconds: sec}
		if total > 0 {
			a.Share = sec / total
		}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// FormatCriticalPath renders the path as an aligned table, one step per
// line in time order.
func FormatCriticalPath(steps []Step) string {
	if len(steps) == 0 {
		return "(no spans: recorded without a trace.Recorder observer?)\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%12s %12s %10s  %-10s %s\n", "from (ms)", "to (ms)", "dur (ms)", "category", "span")
	for i := range steps {
		s := &steps[i]
		detail := s.Name
		if len(s.Attrs.Links) > 0 {
			detail += " [" + strings.Join(s.Attrs.Links, ",") + "]"
		}
		if s.Attrs.Rank >= 0 {
			detail += fmt.Sprintf(" (rank %d)", s.Attrs.Rank)
		}
		fmt.Fprintf(&sb, "%12.6f %12.6f %10.6f  %-10s %s\n",
			s.From*1e3, s.To*1e3, s.Duration()*1e3, s.Cat, detail)
	}
	return sb.String()
}

// FormatAttribution renders the per-category critical-path shares.
func FormatAttribution(steps []Step) string {
	attrs := AttributeSteps(steps)
	if len(attrs) == 0 {
		return "(no critical path)\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %12s %8s\n", "category", "time (ms)", "share")
	for _, a := range attrs {
		fmt.Fprintf(&sb, "%-16s %12.6f %7.1f%%\n", a.Key, a.Seconds*1e3, a.Share*100)
	}
	return sb.String()
}
