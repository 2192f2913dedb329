// Command platforms lists and describes the built-in testbed platforms
// (Table I of the paper) and their simulated hardware profiles.
//
// Usage:
//
//	platforms                 # table of all platforms
//	platforms -name henri     # detailed description of one platform
//	platforms -name henri -topo   # ... with its lstopo-style drawing
//	platforms -profiles       # include hardware-profile summaries
//	platforms -export dir     # every platform and profile as JSON files
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"memcontention"
	"memcontention/internal/checkpoint"
	"memcontention/internal/eval"
	"memcontention/internal/hwloc"
	"memcontention/internal/memsys"
	"memcontention/internal/obs"
	"memcontention/internal/topology"
)

// options are platforms' parsed command-line inputs.
type options struct {
	name      string
	profiles  bool
	topo      bool
	exportDir string
}

func main() {
	var o options
	flag.StringVar(&o.name, "name", "", "describe a single platform")
	flag.BoolVar(&o.profiles, "profiles", false, "show simulated hardware profiles")
	flag.BoolVar(&o.topo, "topo", false, "draw the lstopo-style ASCII topology of the -name platform")
	flag.StringVar(&o.exportDir, "export", "", "write <name>.platform.json and <name>.profile.json files into this directory")
	var cli obs.CLI
	cli.Register(flag.CommandLine, false)
	flag.Parse()

	ctx, stop := checkpoint.SignalContext()
	err := run(ctx, os.Stdout, o, &cli)
	stop()
	if code := checkpoint.Report(os.Stderr, "platforms", err); code != 0 {
		os.Exit(code)
	}
}

// run executes the command core; split from main so tests can drive it
// with their own context and output sink.
func run(ctx context.Context, w io.Writer, o options, cli *obs.CLI) error {
	if o.exportDir != "" && (o.name != "" || o.topo || o.profiles) {
		return fmt.Errorf("-export %s: writes every platform's files; -name, -topo and -profiles do not apply", o.exportDir)
	}
	if o.topo && o.name == "" {
		return fmt.Errorf("-topo: draws one platform; name it with -name")
	}
	if err := cli.Start(); err != nil {
		return err
	}
	var err error
	if o.exportDir != "" {
		err = exportAll(ctx, w, o.exportDir)
	} else {
		err = describe(w, o.name, o.profiles, o.topo)
	}
	if err != nil {
		return err
	}
	man := obs.NewManifest("platforms")
	man.Platform = o.name
	man.Args = os.Args[1:]
	return cli.Finish(cli.NewRegistry(), nil, man)
}

// exportAll dumps every built-in platform and profile as JSON files that
// membench/memmodel can load back with -platformfile/-profilefile.
func exportAll(ctx context.Context, w io.Writer, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, p := range topology.Testbed() {
		// The exported files are written atomically, so interrupting
		// between platforms never leaves a torn pair behind.
		if err := ctx.Err(); err != nil {
			return err
		}
		prof, err := memsys.ProfileFor(p.Name)
		if err != nil {
			return err
		}
		if err := memcontention.SavePlatformFile(filepath.Join(dir, p.Name+".platform.json"), p); err != nil {
			return err
		}
		if err := memcontention.SaveProfileFile(filepath.Join(dir, p.Name+".profile.json"), prof, p); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "wrote %d platform/profile pairs to %s\n", len(topology.Testbed()), dir)
	return nil
}

func describe(w io.Writer, name string, profiles, topo bool) error {
	if name != "" {
		p, err := topology.ByName(name)
		if err != nil {
			return err
		}
		fmt.Fprint(w, p.Describe())
		if topo {
			// A built-in platform was validated when it was built.
			fmt.Fprintln(w)
			fmt.Fprint(w, hwloc.Wrap(p).Render())
		}
		if profiles {
			return printProfile(w, p.Name)
		}
		return nil
	}
	if err := eval.Table1(topology.Testbed()).WriteText(w); err != nil {
		return err
	}
	if profiles {
		for _, p := range topology.Testbed() {
			fmt.Fprintln(w)
			if err := printProfile(w, p.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

func printProfile(w io.Writer, name string) error {
	prof, err := memsys.ProfileFor(name)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Hardware profile %s:\n", name)
	fmt.Fprintf(w, "  per-core stream: %.1f GB/s local, %.1f GB/s remote\n", prof.PerCoreLocal, prof.PerCoreRemote)
	fmt.Fprintf(w, "  NIC nominal:     %v GB/s by node, floor %.0f %%, decay %.1f GB/s per core\n",
		prof.CommNominal, 100*prof.CommFloorFrac, prof.CommDecayPerCore)
	fmt.Fprintf(w, "  controller:      core-alone %.0f GB/s, mixed %.0f GB/s (local plateaus)\n",
		prof.Caps.CoreLocal.Plateau, prof.Caps.MixLocal.Plateau)
	fmt.Fprintf(w, "  link / PCIe:     %.0f / %.1f GB/s\n", prof.LinkCap, prof.PCIeCap)
	return nil
}
