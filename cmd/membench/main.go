// Command membench runs the paper's benchmarking program (§IV-A1) on a
// simulated platform: for every number of computing cores it measures
// computations alone, communications alone, and both in parallel, for one
// or all data placements.
//
// Usage:
//
//	membench -platform henri                       # all placements, text
//	membench -platform henri -comp 0 -comm 1       # one placement
//	membench -platform dahu -kernel copy -csv      # CSV output
//	membench -platform pyxis -bidir                # ping-pong extension
//
// SIGINT/SIGTERM stops the sweep at the next point boundary (exit status
// 130) with the telemetry flushed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"memcontention"
	"memcontention/internal/bench"
	"memcontention/internal/checkpoint"
	"memcontention/internal/export"
	"memcontention/internal/kernels"
	"memcontention/internal/memsys"
	"memcontention/internal/model"
	"memcontention/internal/obs"
	"memcontention/internal/topology"
	"memcontention/internal/units"
)

// options are membench's parsed command-line inputs.
type options struct {
	platform, platformFile, profileFile string
	comp, comm                          int
	kernelName, msgSize                 string
	seed                                uint64
	csvOut, bidir                       bool
}

func main() {
	var o options
	flag.StringVar(&o.platform, "platform", "henri", "built-in platform name")
	flag.StringVar(&o.platformFile, "platformfile", "", "load the platform from a JSON file instead")
	flag.StringVar(&o.profileFile, "profilefile", "", "load the hardware profile from a JSON file (required with -platformfile for non-built-in machines)")
	flag.IntVar(&o.comp, "comp", -1, "computation data NUMA node (-1: all placements)")
	flag.IntVar(&o.comm, "comm", -1, "communication data NUMA node (-1: all placements)")
	flag.StringVar(&o.kernelName, "kernel", "nt-memset", "kernel: nt-memset, copy, triad, load")
	flag.StringVar(&o.msgSize, "msg", "64MiB", "message size")
	flag.Uint64Var(&o.seed, "seed", 1, "measurement noise seed")
	flag.BoolVar(&o.csvOut, "csv", false, "emit CSV instead of a text table")
	flag.BoolVar(&o.bidir, "bidir", false, "bidirectional communications (ping-pong extension)")
	var cli obs.CLI
	cli.Register(flag.CommandLine, false)
	flag.Parse()

	ctx, stop := checkpoint.SignalContext()
	err := run(ctx, os.Stdout, o, &cli)
	stop()
	if code := checkpoint.Report(os.Stderr, "membench", err); code != 0 {
		os.Exit(code)
	}
}

// run executes the sweep; split from main so tests can drive the full
// command logic with their own context and output sink.
func run(ctx context.Context, w io.Writer, o options, cli *obs.CLI) error {
	if err := cli.Start(); err != nil {
		return err
	}
	var plat *topology.Platform
	var prof *memsys.Profile
	var err error
	if o.platformFile != "" {
		if plat, err = memcontention.LoadPlatformFile(o.platformFile); err != nil {
			return err
		}
	} else if plat, err = topology.ByName(o.platform); err != nil {
		return err
	}
	placements, err := placementsFor(plat, o.comp, o.comm)
	if err != nil {
		return err
	}
	if o.profileFile != "" {
		if prof, err = memcontention.LoadProfileFile(o.profileFile, plat); err != nil {
			return err
		}
	}
	kern, err := kernelByName(o.kernelName)
	if err != nil {
		return err
	}
	size, err := units.ParseByteSize(o.msgSize)
	if err != nil {
		return err
	}
	reg := cli.NewRegistry()
	man := obs.NewManifest("membench")
	man.Platform = plat.Name
	man.Kernel = kern.String()
	man.Seed = o.seed
	man.Args = os.Args[1:]
	man.Notes = map[string]string{"message_size": size.String()}

	runner, err := bench.NewRunner(bench.Config{
		Platform:      plat,
		Profile:       prof,
		Kernel:        kern,
		MessageSize:   size,
		Seed:          o.seed,
		Bidirectional: o.bidir,
		Registry:      reg,
		Context:       ctx,
	})
	if err != nil {
		return err
	}
	var curves []*bench.Curve
	for _, pl := range placements {
		c, err := runner.RunPlacement(pl)
		if err != nil {
			// A graceful shutdown still flushes telemetry.
			if checkpoint.IsCanceled(err) {
				_ = cli.Finish(reg, nil, man)
			}
			return err
		}
		curves = append(curves, c)
	}
	for _, curve := range curves {
		t := curveTable(curve)
		if o.csvOut {
			if err := t.WriteCSV(w); err != nil {
				return err
			}
			continue
		}
		if err := t.WriteText(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return cli.Finish(reg, nil, man)
}

// placementsFor resolves -comp and -comm: both -1, the default, select
// every placement of plat, and two NUMA nodes of plat select one.
// Anything else is a usage error, refused before any work.
func placementsFor(plat *topology.Platform, comp, comm int) ([]model.Placement, error) {
	for _, f := range []struct {
		flag string
		node int
	}{{"-comp", comp}, {"-comm", comm}} {
		if f.node < -1 || f.node >= plat.NNodes() {
			return nil, fmt.Errorf("%s %d: must be a NUMA node of %s (0-%d), or -1 for every placement", f.flag, f.node, plat.Name, plat.NNodes()-1)
		}
	}
	switch {
	case comp < 0 && comm < 0:
		return bench.AllPlacements(plat), nil
	case comp < 0 || comm < 0:
		return nil, fmt.Errorf("-comp %d -comm %d: give both placement nodes, or neither for every placement", comp, comm)
	}
	return []model.Placement{{Comp: topology.NodeID(comp), Comm: topology.NodeID(comm)}}, nil
}

func kernelByName(name string) (kernels.Kernel, error) {
	for _, kind := range []kernels.Kind{kernels.NTMemset, kernels.Copy, kernels.Triad, kernels.Load} {
		if kind.String() == name {
			return kernels.New(kind), nil
		}
	}
	return kernels.Kernel{}, fmt.Errorf("unknown kernel %q", name)
}

func curveTable(c *bench.Curve) *export.Table {
	t := export.NewTable(
		fmt.Sprintf("%s — %v (kernel %s), bandwidths in GB/s", c.Platform, c.Placement, c.Kernel),
		"n", "comp alone", "comm alone", "comp par", "comm par", "total par",
	)
	for _, p := range c.Points {
		t.AddRow(fmt.Sprint(p.N),
			export.GBs(p.CompAlone), export.GBs(p.CommAlone),
			export.GBs(p.CompPar), export.GBs(p.CommPar), export.GBs(p.TotalPar()))
	}
	return t
}
