package simnet

import (
	"math"
	"testing"

	"memcontention/internal/engine"
	"memcontention/internal/memsys"
	"memcontention/internal/topology"
	"memcontention/internal/units"
)

// henriSystem builds the memory system the machines of these tests share.
func henriSystem(tb testing.TB) *memsys.System {
	tb.Helper()
	prof, err := memsys.ProfileFor("henri")
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := memsys.New(topology.Henri(), prof)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

func twoMachines(tb testing.TB, sys *memsys.System, wire, latency float64) (*engine.Sim, *Fabric, *Machine, *Machine) {
	tb.Helper()
	sim := engine.NewSim()
	fabric, err := NewFabric(sim, wire, latency)
	if err != nil {
		tb.Fatal(err)
	}
	var ms [2]*Machine
	for i := range ms {
		m := NewMachine(sim, i, sys)
		if err := fabric.Attach(m); err != nil {
			tb.Fatal(err)
		}
		ms[i] = m
	}
	return sim, fabric, ms[0], ms[1]
}

// recipient adapts a func to a Recipient.
type recipient func(Result, error)

func (r recipient) Delivered(res Result, err error) { r(res, err) }

// deliver performs one transfer and parks p until the fabric reports its
// outcome.
func deliver(p *engine.Proc, f *Fabric, t Transfer) (res Result, err error) {
	sig := p.Sim().NewSignal()
	f.DeliverAsync(t, recipient(func(r Result, e error) {
		res, err = r, e
		sig.Fire()
	}))
	sig.Wait(p)
	return res, err
}

func TestDeliverTiming(t *testing.T) {
	const latency = 2e-6
	sim, fabric, m0, m1 := twoMachines(t, henriSystem(t), 12.1, latency)
	var res Result
	sim.Spawn("recv", func(p *engine.Proc) {
		var err error
		res, err = deliver(p, fabric, Transfer{
			Src: m0, Dst: m1, SrcNode: 0, DstNode: 0, Size: 64 * units.MiB,
		})
		if err != nil {
			t.Error(err)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Receive path: min(wire 12.1, nominal 10.9) = 10.9 GB/s; the send
	// path is the same nominal so both drain together.
	want := latency + float64(64*units.MiB)/(10.9*units.BytesPerGB)
	if math.Abs(res.End-want) > 1e-9 {
		t.Errorf("transfer ended at %v, want %v", res.End, want)
	}
	if res.AvgRate <= 0 {
		t.Error("missing average rate")
	}
}

func TestWireRateBounds(t *testing.T) {
	sim, fabric, m0, m1 := twoMachines(t, henriSystem(t), 5.0, 0) // slow wire
	var res Result
	sim.Spawn("recv", func(p *engine.Proc) {
		res, _ = deliver(p, fabric, Transfer{
			Src: m0, Dst: m1, SrcNode: 0, DstNode: 0, Size: 64 * units.MiB,
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if res.AvgRate.GBps() > 5.0+1e-9 {
		t.Errorf("transfer at %v GB/s exceeds the 5 GB/s wire", res.AvgRate.GBps())
	}
}

func TestDeliverErrors(t *testing.T) {
	sim, fabric, m0, m1 := twoMachines(t, henriSystem(t), 12.1, 0)
	detached := NewMachine(sim, 7, m0.Sys)
	cases := []struct {
		name string
		tr   Transfer
	}{
		{"nil machine", Transfer{Src: nil, Dst: m1, Size: units.MiB}},
		{"loopback", Transfer{Src: m0, Dst: m0, Size: units.MiB}},
		{"zero size", Transfer{Src: m0, Dst: m1, Size: 0}},
		{"bad src node", Transfer{Src: m0, Dst: m1, SrcNode: 9, Size: units.MiB}},
		{"bad dst node", Transfer{Src: m0, Dst: m1, DstNode: 9, Size: units.MiB}},
		{"unattached machine", Transfer{Src: detached, Dst: m1, Size: units.MiB}},
	}
	for _, c := range cases {
		c := c
		sim.Spawn("t", func(p *engine.Proc) {
			if _, err := deliver(p, fabric, c.tr); err == nil {
				t.Errorf("%s: expected error", c.name)
			}
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFabricValidation(t *testing.T) {
	sim := engine.NewSim()
	if _, err := NewFabric(sim, 0, 0); err == nil {
		t.Error("zero wire rate must be rejected")
	}
	if _, err := NewFabric(sim, 10, -1); err == nil {
		t.Error("negative latency must be rejected")
	}
	fabric, err := NewFabric(sim, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := memsys.ProfileFor("henri")
	sys, err := memsys.New(topology.Henri(), prof)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(sim, 0, sys)
	if err := fabric.Attach(m); err != nil {
		t.Fatal(err)
	}
	if err := fabric.Attach(m); err == nil {
		t.Error("duplicate attach must fail")
	}
}

func TestConcurrentTransfersContendOnPCIe(t *testing.T) {
	// Two simultaneous receives into the same machine share its PCIe /
	// controller path, so each is slower than alone.
	sim, fabric, m0, m1 := twoMachines(t, henriSystem(t), 100, 0) // wire not the bottleneck
	var alone, shared Result
	sim.Spawn("phase", func(p *engine.Proc) {
		alone, _ = deliver(p, fabric, Transfer{Src: m0, Dst: m1, SrcNode: 0, DstNode: 0, Size: 64 * units.MiB})
		done := sim.NewSignal()
		remaining := 2
		for i := 0; i < 2; i++ {
			fabric.DeliverAsync(Transfer{Src: m0, Dst: m1, SrcNode: 0, DstNode: 0, Size: 64 * units.MiB},
				recipient(func(r Result, err error) {
					if err != nil {
						t.Error(err)
					}
					shared = r
					remaining--
					if remaining == 0 {
						done.Fire()
					}
				}))
		}
		done.Wait(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if shared.AvgRate.GBps() >= alone.AvgRate.GBps() {
		t.Errorf("shared transfer (%v) must be slower than alone (%v)", shared.AvgRate, alone.AvgRate)
	}
}

// relay delivers its transfer again each time the last one lands, until
// left transfers have landed.
type relay struct {
	fabric *Fabric
	t      Transfer
	left   int
	err    error
}

func (r *relay) Delivered(_ Result, err error) {
	if r.left--; err != nil {
		r.err = err
	} else if r.left > 0 {
		r.fabric.DeliverAsync(r.t, r)
	}
}

// TestDeliverAllocs pins what a fabric transfer costs: nothing, once the
// fabric has a transfer object to reuse. The relay delivers each next
// transfer from inside Delivered, after the fabric has taken the last
// one's object back, so every transfer of a run reuses the first one's.
// The difference between runs of 2n and n transfers cancels the set-up;
// the bound allows a tenth of an allocation per transfer for the
// runtime's own noise. Before transfer objects were reused, a transfer
// allocated once.
func TestDeliverAllocs(t *testing.T) {
	sys := henriSystem(t)
	transfers := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			sim, fabric, m0, m1 := twoMachines(t, sys, 12.1, 1.5e-6)
			r := &relay{fabric: fabric, t: Transfer{Src: m0, Dst: m1, Size: units.MiB}, left: n}
			fabric.DeliverAsync(r.t, r)
			if err := sim.Run(); err != nil || r.err != nil || r.left != 0 {
				t.Fatalf("run: %v, transfer: %v, %d left", err, r.err, r.left)
			}
		})
	}
	const n = 100
	if got := (transfers(2*n) - transfers(n)) / n; got > 0.1 {
		t.Errorf("a transfer allocates %v times, want 0", got)
	}
}

func TestWireRateFor(t *testing.T) {
	if WireRateFor(topology.OmniPath, 3) != 11.9 {
		t.Error("Omni-Path wire rate wrong")
	}
	if WireRateFor(topology.InfiniBand, 3) != 12.1 {
		t.Error("EDR wire rate wrong")
	}
	if WireRateFor(topology.InfiniBand, 4) != 23.5 {
		t.Error("HDR wire rate wrong")
	}
	if WireRateFor(topology.NetworkTech("other"), 3) <= 0 {
		t.Error("unknown tech must still return a positive rate")
	}
}

// BenchmarkDeliver times one fabric transfer end to end: an 8 MiB message
// between two henri machines on a fresh simulation, from DeliverAsync to
// its completion callback. The memory system is built once, outside the
// timed loop.
func BenchmarkDeliver(b *testing.B) {
	sys := henriSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, fabric, m0, m1 := twoMachines(b, sys, 12.1, 1.5e-6)
		var res Result
		var err error
		fabric.DeliverAsync(Transfer{Src: m0, Dst: m1, Size: 8 * units.MiB}, recipient(func(r Result, e error) { res, err = r, e }))
		if rerr := sim.Run(); rerr != nil {
			b.Fatal(rerr)
		}
		if err != nil || res.End == 0 {
			b.Fatalf("transfer ended at %v: %v", res.End, err)
		}
	}
}
