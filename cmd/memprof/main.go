// Command memprof is the contention attribution profiler's front end: it
// replays the paper's motivating overlap scenario (§II) on a simulated
// cluster with causal spans enabled — or loads a previously recorded
// trace — and reports where the makespan went: the critical path through
// ranks, MPI operations, fabric transfers and memory flows; the
// per-resource utilization of every memory-system link; and the
// per-stream attribution summary pinning the timeline's bandwidth
// integrals to the engine's reported averages.
//
// Usage:
//
//	memprof -platform henri                  # profile the overlap scenario
//	memprof -platform dahu -top 3            # top 3 contended links
//	memprof -load run.jsonl                  # analyse a recorded trace
//	memprof -platform henri -perfetto p.json # export for ui.perfetto.dev
//
// Telemetry (all optional, see docs/observability.md):
//
//	memprof -platform henri -trace t.jsonl   # full span trace as JSONL
//	memprof -platform henri -metrics m.prom -manifest run.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"memcontention/internal/atomicio"
	"memcontention/internal/campaign"
	"memcontention/internal/checkpoint"
	"memcontention/internal/obs"
	"memcontention/internal/prof"
	"memcontention/internal/trace"
)

// options are memprof's parsed command-line inputs.
type options struct {
	platform string
	load     string
	perfetto string
	top      int
	width    int
}

func main() {
	var o options
	flag.StringVar(&o.platform, "platform", "henri", "built-in platform name to profile")
	flag.StringVar(&o.load, "load", "", "analyse this recorded JSONL trace instead of running a scenario")
	flag.StringVar(&o.perfetto, "perfetto", "", "write a Chrome trace-event JSON export (open in ui.perfetto.dev)")
	flag.IntVar(&o.top, "top", 5, "number of contended links to highlight")
	flag.IntVar(&o.width, "width", 60, "share chart width in columns")
	var cli obs.CLI
	cli.Register(flag.CommandLine, true)
	flag.Parse()

	ctx, stop := checkpoint.SignalContext()
	err := run(ctx, os.Stdout, o, &cli)
	stop()
	if code := checkpoint.Report(os.Stderr, "memprof", err); code != 0 {
		os.Exit(code)
	}
}

// run executes the command core; split from main so tests can drive the
// full logic with their own context and outputs.
func run(ctx context.Context, w io.Writer, o options, cli *obs.CLI) (err error) {
	if err := cli.Start(); err != nil {
		return err
	}
	reg := cli.NewRegistry()
	man := obs.NewManifest("memprof")
	man.Platform = o.platform
	man.Args = os.Args[1:]

	var events []trace.Event
	rec := trace.NewRecorder()
	if o.load != "" {
		events, err = trace.LoadJSONL(o.load)
		if err != nil {
			return err
		}
		rec.Ingest(events)
		man.Platform = ""
		man.Notes = map[string]string{"source": o.load}
		fmt.Fprintf(w, "loaded %d events from %s\n\n", len(events), o.load)
	} else {
		xc, xerr := campaign.CrossCheck(campaign.Config{
			Context:  ctx,
			Registry: reg,
			Recorder: rec,
		}, o.platform)
		if xerr != nil {
			return xerr
		}
		events = rec.Events()
		fmt.Fprintf(w, "profiled overlap scenario on %s: %.6f simulated seconds, %d events\n\n",
			o.platform, xc.SimSeconds, len(events))
	}

	// Telemetry flushes on success; the recorder holds the full profiled
	// (or re-ingested) timeline for -trace.
	defer func() {
		ferr := cli.Finish(reg, rec, man)
		if err == nil {
			err = ferr
		}
	}()

	if err := report(w, events, o); err != nil {
		return err
	}

	if o.perfetto != "" {
		err := atomicio.WriteStream(o.perfetto, 0o644, func(w io.Writer) error {
			return prof.WritePerfetto(w, events)
		})
		if err != nil {
			return fmt.Errorf("writing -perfetto: %w", err)
		}
		fmt.Fprintf(w, "\nwrote Perfetto trace to %s (open in ui.perfetto.dev)\n", o.perfetto)
	}
	return nil
}

// report renders the three analyses on w.
func report(w io.Writer, events []trace.Event, o options) error {
	st, err := prof.BuildSpanTree(events)
	if err != nil {
		return err
	}
	steps := st.CriticalPath()
	fmt.Fprintf(w, "== critical path (%d spans, makespan %.6f ms) ==\n", st.SpanCount(), st.Makespan*1e3)
	io.WriteString(w, prof.FormatCriticalPath(steps))
	fmt.Fprintf(w, "\n== critical-path attribution ==\n")
	io.WriteString(w, prof.FormatAttribution(steps))

	tl, err := prof.BuildTimeline(events)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n== per-stream attribution (timeline integral vs engine average) ==\n")
	io.WriteString(w, prof.FormatStreams(tl))
	fmt.Fprintf(w, "\n== link utilization ==\n")
	io.WriteString(w, prof.FormatUtilization(tl))
	if top := tl.TopContended(o.top); len(top) > 0 {
		fmt.Fprintf(w, "\n== top %d contended links ==\n", len(top))
		for i, lu := range top {
			fmt.Fprintf(w, "%d. machine %d %s: %.3f GB total (%.1f%% comm), peak %.2f GB/s\n",
				i+1, lu.Machine, lu.Link, lu.TotalGB(), commShare(lu)*100, lu.Peak)
		}
	}
	fmt.Fprintf(w, "\n== bandwidth shares ==\n")
	io.WriteString(w, tl.ShareChart(o.width))
	return nil
}

func commShare(lu prof.LinkUtil) float64 {
	if t := lu.TotalGB(); t > 0 {
		return lu.CommGB / t
	}
	return 0
}
