package netbench

import (
	"context"
	"errors"
	"strings"
	"testing"

	"memcontention/internal/topology"
	"memcontention/internal/units"
)

func TestPingPongCurveShape(t *testing.T) {
	pts, err := PingPong(Config{Platform: topology.Henri(), Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	// Bandwidth must be monotonically non-decreasing with message size
	// (latency amortises away) and converge near the nominal rate.
	prev := 0.0
	for _, p := range pts {
		if p.Bandwidth < prev-1e-9 {
			t.Errorf("%s: bandwidth %.3f dropped below %.3f", p.Size, p.Bandwidth, prev)
		}
		prev = p.Bandwidth
		if p.HalfRTT <= 0 {
			t.Errorf("%s: non-positive half RTT", p.Size)
		}
	}
	small, large := pts[0], pts[len(pts)-1]
	if small.Bandwidth > 0.5*large.Bandwidth {
		t.Errorf("1 KiB messages (%.2f GB/s) must be latency-dominated vs %.2f GB/s", small.Bandwidth, large.Bandwidth)
	}
	// Large messages approach the NIC's nominal receive rate (10.9 on
	// node 0), bounded by it.
	if large.Bandwidth > 10.9+0.1 {
		t.Errorf("large-message bandwidth %.2f exceeds the nominal rate", large.Bandwidth)
	}
	if large.Bandwidth < 0.8*10.9 {
		t.Errorf("large-message bandwidth %.2f too far from nominal 10.9", large.Bandwidth)
	}
	// Latency floor: the smallest message's half RTT is at least the
	// fabric latency.
	if small.HalfRTT < 1.5e-6 {
		t.Errorf("half RTT %.2e below the fabric latency", small.HalfRTT)
	}
}

func TestPingPongLocalitySensitivity(t *testing.T) {
	// On diablo the NIC-local node yields much higher large-message
	// bandwidth — the sweep must see the locality split end to end.
	sizes := []units.ByteSize{64 * units.MiB}
	far, err := PingPong(Config{Platform: topology.Diablo(), Node: 0, Sizes: sizes})
	if err != nil {
		t.Fatal(err)
	}
	near, err := PingPong(Config{Platform: topology.Diablo(), Node: 1, Sizes: sizes})
	if err != nil {
		t.Fatal(err)
	}
	ratio := near[0].Bandwidth / far[0].Bandwidth
	if ratio < 1.5 {
		t.Errorf("NIC-local node must be much faster, ratio %.2f", ratio)
	}
}

func TestPingPongValidation(t *testing.T) {
	if _, err := PingPong(Config{}); err == nil {
		t.Error("nil platform must fail")
	}
	custom, err := topology.NewBuilder("x").
		CPU(topology.Intel, "x").
		Sockets(2).NodesPerSocket(1).CoresPerSocket(2).
		MemoryPerNodeGB(4).
		NICOn("n", topology.InfiniBand, 1, 3).
		LinkName("UPI").Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PingPong(Config{Platform: custom}); err == nil {
		t.Error("custom platform without profile must fail")
	}
	for _, node := range []topology.NodeID{-1, 9} {
		_, err := PingPong(Config{Platform: topology.Henri(), Node: node})
		if err == nil || !strings.Contains(err.Error(), "NUMA nodes 0-1") {
			t.Errorf("node %d: err = %v, want it refused before a simulation", node, err)
		}
	}
}

func TestPingPongDeterministic(t *testing.T) {
	cfg := Config{Platform: topology.Henri(), Node: 0, Sizes: []units.ByteSize{units.MiB}}
	a, err := PingPong(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PingPong(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Error("ping-pong must be deterministic")
	}
}

// TestPingPongJournalResumeAndCancel: a canceled sweep stops at the next
// size boundary.
func TestPingPongJournalResumeAndCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := PingPong(Config{Platform: topology.Henri(), Sizes: []units.ByteSize{units.KiB}, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
