// Package netbench measures the simulated network the way MPI
// benchmarking suites do: a ping-pong between two machines swept over
// message sizes, yielding the classic latency→bandwidth curve. The paper's
// model assumes large messages ("big messages are exchanged", §I); this
// sweep locates the message size where its bandwidth assumption becomes
// valid, and doubles as an end-to-end exercise of the DES + MPI substrate.
package netbench

import (
	"context"
	"errors"
	"fmt"

	"memcontention/internal/engine"
	"memcontention/internal/memsys"
	"memcontention/internal/mpi"
	"memcontention/internal/obs"
	"memcontention/internal/simnet"
	"memcontention/internal/topology"
	"memcontention/internal/units"
)

// Point is one ping-pong measurement.
type Point struct {
	Size units.ByteSize `json:"size"`
	// HalfRTT is the one-way time in seconds (round trip / 2).
	HalfRTT float64 `json:"half_rtt"`
	// Bandwidth is Size / HalfRTT in GB/s.
	Bandwidth float64 `json:"bandwidth"`
}

// Config parameterises a ping-pong sweep.
type Config struct {
	Platform *topology.Platform
	Profile  *memsys.Profile
	// Node is the NUMA node holding both ranks' buffers.
	Node topology.NodeID
	// Iterations per size (round trips averaged). Default 4.
	Iterations int
	// Sizes to sweep. Default: 1 KiB .. 64 MiB, powers of four.
	Sizes []units.ByteSize
	// Registry, when set, receives sweep telemetry and the per-size
	// simulations' engine instruments. Nil disables instrumentation.
	Registry *obs.Registry
	// Context, when set, cancels the sweep cooperatively: PingPong
	// returns ctx's error at the next size boundary and the in-flight
	// simulation stops between events. Nil keeps the sweep check-free.
	Context context.Context
}

func (c Config) withDefaults() (Config, error) {
	if c.Platform == nil {
		return c, fmt.Errorf("netbench: nil platform")
	}
	if n := c.Platform.NNodes(); int(c.Node) < 0 || int(c.Node) >= n {
		return c, fmt.Errorf("netbench: node %d out of range: %s has NUMA nodes 0-%d", c.Node, c.Platform.Name, n-1)
	}
	if c.Profile == nil {
		prof, err := memsys.ProfileFor(c.Platform.Name)
		if err != nil {
			return c, err
		}
		c.Profile = prof
	}
	if c.Iterations <= 0 {
		c.Iterations = 4
	}
	if len(c.Sizes) == 0 {
		for s := units.KiB; s <= 64*units.MiB; s *= 4 {
			c.Sizes = append(c.Sizes, s)
		}
	}
	return c, nil
}

// PingPong runs the sweep and returns one point per size.
func PingPong(cfg Config) ([]Point, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	points := make([]Point, 0, len(cfg.Sizes))
	sweeps := cfg.Registry.Counter("memcontention_netbench_points_total", "Ping-pong sweep points measured.", nil)
	bw := cfg.Registry.Histogram("memcontention_netbench_bandwidth_gbps", "Ping-pong bandwidths over the size sweep.", obs.BandwidthBuckets(), nil)
	rtt := cfg.Registry.Histogram("memcontention_netbench_half_rtt_seconds", "One-way ping-pong times over the size sweep.", obs.DurationBuckets(), nil)
	for _, size := range cfg.Sizes {
		if cfg.Context != nil {
			if err := cfg.Context.Err(); err != nil {
				return nil, fmt.Errorf("netbench: sweep canceled at size %s: %w", size, err)
			}
		}
		pt, err := pingPongOne(cfg, size)
		if err != nil {
			return nil, fmt.Errorf("netbench: size %s: %w", size, err)
		}
		sweeps.Inc()
		bw.Observe(pt.Bandwidth)
		rtt.Observe(pt.HalfRTT)
		points = append(points, pt)
	}
	return points, nil
}

// pingPongOne runs one fresh two-machine simulation for a single size (a
// fresh simulation per size keeps measurements independent).
func pingPongOne(cfg Config, size units.ByteSize) (Point, error) {
	sim := engine.NewSim()
	sim.SetRegistry(cfg.Registry)
	sim.SetContext(cfg.Context)
	wire := simnet.WireRateFor(cfg.Platform.NIC.Tech, cfg.Platform.NIC.PCIeGen)
	fabric, err := simnet.NewFabric(sim, wire, 1.5e-6)
	if err != nil {
		return Point{}, err
	}
	sys, err := memsys.New(cfg.Platform, cfg.Profile)
	if err != nil {
		return Point{}, err
	}
	var machines []*simnet.Machine
	for i := 0; i < 2; i++ {
		m := simnet.NewMachine(sim, i, sys)
		if err := fabric.Attach(m); err != nil {
			return Point{}, err
		}
		m.Flows.SetRegistry(cfg.Registry)
		machines = append(machines, m)
	}
	world, err := mpi.NewWorld(sim, fabric, machines, 1)
	if err != nil {
		return Point{}, err
	}

	var start, end float64
	var errs [2]error
	world.Launch(func(c *mpi.Ctx) {
		me := c.Rank()
		c.Barrier()
		if me == 0 {
			start = c.Now()
		}
		errs[me] = roundTrips(c, cfg, size)
		if me == 0 {
			end = c.Now()
		}
	})
	runErr := sim.Run()
	if err := errors.Join(runErr, errs[0], errs[1]); err != nil {
		return Point{}, err
	}
	halfRTT := (end - start) / float64(2*cfg.Iterations)
	if halfRTT <= 0 {
		return Point{}, fmt.Errorf("non-positive half RTT")
	}
	return Point{
		Size:      size,
		HalfRTT:   halfRTT,
		Bandwidth: float64(size) / units.BytesPerGB / halfRTT,
	}, nil
}

// roundTrips runs one rank's side of the ping-pong: rank 0 sends first
// and rank 1 answers, cfg.Iterations times.
func roundTrips(c *mpi.Ctx, cfg Config, size units.ByteSize) error {
	const tag = 99
	peer := 1 - c.Rank()
	for i := 0; i < cfg.Iterations; i++ {
		if c.Rank() == 0 {
			if err := c.Send(peer, tag, size, cfg.Node, nil); err != nil {
				return err
			}
		}
		if _, err := c.Recv(peer, tag, size, cfg.Node); err != nil {
			return err
		}
		if c.Rank() == 1 {
			if err := c.Send(peer, tag, size, cfg.Node, nil); err != nil {
				return err
			}
		}
	}
	return nil
}
