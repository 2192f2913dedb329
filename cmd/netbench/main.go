// Command netbench runs the ping-pong message-size sweep (experiment E14)
// over the simulated fabric, printing the classic latency→bandwidth curve
// MPI benchmark suites report.
//
// Usage:
//
//	netbench -platform henri
//	netbench -platform diablo -node 1 -iters 8
//	netbench -platform henri -metrics m.prom -manifest run.json
//
// SIGINT/SIGTERM stops the sweep at the next size boundary (exit status
// 130).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"memcontention/internal/checkpoint"
	"memcontention/internal/export"
	"memcontention/internal/netbench"
	"memcontention/internal/obs"
	"memcontention/internal/topology"
)

func main() {
	platform := flag.String("platform", "henri", "built-in platform name")
	node := flag.Int("node", 0, "NUMA node holding the buffers on both machines")
	iters := flag.Int("iters", 4, "round trips per message size")
	csvOut := flag.Bool("csv", false, "emit CSV")
	var cli obs.CLI
	cli.Register(flag.CommandLine, false)
	flag.Parse()

	ctx, stop := checkpoint.SignalContext()
	err := run(ctx, os.Stdout, *platform, *node, *iters, *csvOut, &cli)
	stop()
	if code := checkpoint.Report(os.Stderr, "netbench", err); code != 0 {
		os.Exit(code)
	}
}

// run executes the sweep; split from main so tests can drive the full
// command logic with their own context and output sink.
func run(ctx context.Context, w io.Writer, platform string, node, iters int, csvOut bool, cli *obs.CLI) error {
	if iters < 1 {
		return fmt.Errorf("-iters %d: must be a positive round-trip count", iters)
	}
	plat, err := topology.ByName(platform)
	if err != nil {
		return err
	}
	if node < 0 || node >= plat.NNodes() {
		return fmt.Errorf("-node %d: must be a NUMA node of %s (0-%d)", node, plat.Name, plat.NNodes()-1)
	}
	if err := cli.Start(); err != nil {
		return err
	}
	reg := cli.NewRegistry()
	points, err := netbench.PingPong(netbench.Config{
		Platform:   plat,
		Node:       topology.NodeID(node),
		Iterations: iters,
		Registry:   reg,
		Context:    ctx,
	})
	if err != nil {
		return err
	}
	t := export.NewTable(
		fmt.Sprintf("Ping-pong on 2 × %s, buffers on node %d (%d round trips per size)", platform, node, iters),
		"size", "half RTT (µs)", "bandwidth (GB/s)",
	)
	for _, p := range points {
		t.AddRow(p.Size.String(), fmt.Sprintf("%.2f", p.HalfRTT*1e6), export.GBs(p.Bandwidth))
	}
	if csvOut {
		if err := t.WriteCSV(w); err != nil {
			return err
		}
	} else if err := t.WriteText(w); err != nil {
		return err
	}
	man := obs.NewManifest("netbench")
	man.Platform = plat.Name
	man.Args = os.Args[1:]
	man.Notes = map[string]string{
		"node":       fmt.Sprint(node),
		"iterations": fmt.Sprint(iters),
	}
	return cli.Finish(reg, nil, man)
}
