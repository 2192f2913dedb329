package mpi

import (
	"strings"
	"testing"

	"memcontention/internal/units"
)

func TestSplitByParity(t *testing.T) {
	sim, w := newWorld(t, 2, 2) // 4 ranks
	type view struct {
		rank, size int
	}
	views := make([]view, 4)
	run(t, sim, w, func(c *Ctx) {
		comm, err := c.Split(c.Rank()%2, 0)
		if err != nil {
			t.Error(err)
			return
		}
		views[c.Rank()] = view{rank: comm.Rank(), size: comm.Size()}
	})
	// Ranks {0,2} form color 0; {1,3} color 1. Keys equal → world order.
	want := []view{{0, 2}, {0, 2}, {1, 2}, {1, 2}}
	for r, v := range views {
		if v != want[r] {
			t.Errorf("world rank %d: comm view %+v, want %+v", r, v, want[r])
		}
	}
}

func TestSplitKeyOrdering(t *testing.T) {
	sim, w := newWorld(t, 2, 2)
	localRanks := make([]int, 4)
	run(t, sim, w, func(c *Ctx) {
		// Reverse the ordering via keys: higher world rank → lower key.
		comm, err := c.Split(0, -c.Rank())
		if err != nil {
			t.Error(err)
			return
		}
		localRanks[c.Rank()] = comm.Rank()
	})
	for worldRank, local := range localRanks {
		if want := 3 - worldRank; local != want {
			t.Errorf("world rank %d: comm rank %d, want %d (key-reversed)", worldRank, local, want)
		}
	}
}

func TestSplitOptOut(t *testing.T) {
	sim, w := newWorld(t, 2, 2)
	var optedOut, members int
	run(t, sim, w, func(c *Ctx) {
		color := 0
		if c.Rank() == 3 {
			color = -1 // MPI_UNDEFINED
		}
		comm, err := c.Split(color, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if comm == nil {
			optedOut++
			return
		}
		members = comm.Size()
	})
	if optedOut != 1 || members != 3 {
		t.Errorf("opt-out broken: %d opted out, comm size %d", optedOut, members)
	}
}

func TestCommSendRecvTranslation(t *testing.T) {
	sim, w := newWorld(t, 2, 2)
	var got Status
	run(t, sim, w, func(c *Ctx) {
		comm, err := c.Split(c.Rank()%2, 0)
		if err != nil {
			t.Error(err)
			return
		}
		// Within the odd communicator (world ranks 1 and 3 → comm
		// ranks 0 and 1): comm rank 0 sends to comm rank 1.
		if c.Rank()%2 == 1 {
			switch comm.Rank() {
			case 0:
				if err := comm.Send(1, 7, units.MiB, 0, "odd"); err != nil {
					t.Error(err)
				}
			case 1:
				st, err := comm.Recv(0, 7, units.MiB, 0)
				if err != nil {
					t.Error(err)
				}
				got = st
			}
		}
	})
	if got.Payload != "odd" {
		t.Error("comm-scoped message lost")
	}
	if got.Source != 0 {
		t.Errorf("status source = %d, want comm-local 0", got.Source)
	}
	if got.Tag != 7 {
		t.Errorf("status tag = %d, want user tag 7", got.Tag)
	}
}

func TestCommTagIsolation(t *testing.T) {
	// The same user tag in two communicators must not cross-match.
	sim, w := newWorld(t, 2, 2)
	payloads := make([]any, 4)
	run(t, sim, w, func(c *Ctx) {
		comm, err := c.Split(c.Rank()%2, 0)
		if err != nil {
			t.Error(err)
			return
		}
		switch comm.Rank() {
		case 0:
			label := "even"
			if c.Rank()%2 == 1 {
				label = "odd"
			}
			if err := comm.Send(1, 1, units.KiB, 0, label); err != nil {
				t.Error(err)
			}
		case 1:
			st, err := comm.Recv(0, 1, units.KiB, 0)
			if err != nil {
				t.Error(err)
			}
			payloads[c.Rank()] = st.Payload
		}
	})
	if payloads[2] != "even" || payloads[3] != "odd" {
		t.Errorf("communicator tags leaked: %v", payloads)
	}
}

// TestCommCollectivesSkipUserTags: a communicator's Bcast and Reduce use
// tags outside its user tags, so a user message in flight does not
// match them. With user tags 1 and 2 mapped onto the communicator's own
// Bcast and Reduce tags, rank 1's Bcast returned the user message and
// its next Recv got the broadcast.
func TestCommCollectivesSkipUserTags(t *testing.T) {
	sim, w := newWorld(t, 2, 1)
	var bcast, recv any
	run(t, sim, w, func(c *Ctx) {
		comm, err := c.Split(0, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if comm.Rank() == 0 {
			if err := comm.Send(1, 1, units.KiB, 0, "user"); err != nil {
				t.Error(err)
			}
		}
		out, err := comm.Bcast(0, units.KiB, 0, "bcast")
		if err != nil {
			t.Error(err)
		}
		if comm.Rank() == 1 {
			bcast = out
			st, err := comm.Recv(0, 1, units.KiB, 0)
			if err != nil {
				t.Error(err)
			}
			recv = st.Payload
		}
	})
	if bcast != "bcast" || recv != "user" {
		t.Errorf("rank 1's Bcast got %v and its Recv %v, want bcast and user", bcast, recv)
	}
}

// TestCommTagStripeBound: a communicator's user tags stay below its
// stripe: a tag at or above the bound is refused at the call, naming it.
// When it was accepted, tag 65536 of one communicator was tag 0 of the
// next, and a receive of tag 0 there got the other communicator's
// message.
func TestCommTagStripeBound(t *testing.T) {
	sim, w := newWorld(t, 2, 1)
	var errs [3]error // a.Send(65536), a.Send(65534), a.Recv(65534)
	var got any
	run(t, sim, w, func(c *Ctx) {
		a, err := c.Split(0, 0)
		if err != nil {
			t.Error(err)
			return
		}
		b, err := c.Split(0, 0)
		if err != nil {
			t.Error(err)
			return
		}
		switch c.Rank() {
		case 0:
			errs[0] = a.Send(1, 65536, units.KiB, 0, "a")
			errs[1] = a.Send(1, 65534, units.KiB, 0, "x")
			if err := b.Send(1, 0, units.KiB, 0, "b"); err != nil {
				t.Error(err)
			}
		case 1:
			st, err := b.Recv(0, 0, units.KiB, 0)
			if err != nil {
				t.Error(err)
			}
			got = st.Payload
			_, errs[2] = a.Recv(0, 65534, units.KiB, 0)
		}
	})
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "[0, 65534)") {
			t.Errorf("comm call %d past the user tags returned %v, want an error naming [0, 65534)", i, err)
		}
	}
	if got != "b" {
		t.Errorf("the second communicator's Recv got %v, want b", got)
	}
}

func TestCommBarrier(t *testing.T) {
	sim, w := newWorld(t, 2, 2)
	times := make([]float64, 4)
	run(t, sim, w, func(c *Ctx) {
		comm, err := c.Split(c.Rank()%2, 0)
		if err != nil {
			t.Error(err)
			return
		}
		// Stagger arrivals within each communicator.
		c.Sleep(float64(comm.Rank()) * 1e-3)
		if err := comm.Barrier(); err != nil {
			t.Error(err)
		}
		times[c.Rank()] = c.Now()
	})
	// Each 2-member communicator leaves its barrier at its slower
	// member's time (1 ms), independently of the other communicator.
	for r, ts := range times {
		if ts < 1e-3-1e-12 || ts > 1.1e-3 {
			t.Errorf("rank %d left comm barrier at %v", r, ts)
		}
	}
}

func TestCommCollectives(t *testing.T) {
	sim, w := newWorld(t, 3, 2) // 6 ranks, split into 2 groups of 3
	sums := make([]float64, 6)
	bcasts := make([]any, 6)
	run(t, sim, w, func(c *Ctx) {
		comm, err := c.Split(c.Rank()%2, 0)
		if err != nil {
			t.Error(err)
			return
		}
		// Reduce comm-local ranks: 0+1+2 = 3 in each group.
		v, err := comm.Reduce(0, units.KiB, 0, float64(comm.Rank()), Sum)
		if err != nil {
			t.Error(err)
			return
		}
		sums[c.Rank()] = v
		// Broadcast the group's parity from its comm root.
		var payload any
		if comm.Rank() == 0 {
			payload = c.Rank() % 2
		}
		out, err := comm.Bcast(0, units.KiB, 0, payload)
		if err != nil {
			t.Error(err)
			return
		}
		bcasts[c.Rank()] = out
	})
	for r := 0; r < 6; r++ {
		isCommRoot := r/2 == 0 // world ranks 0 and 1 are comm rank 0 of their groups
		if isCommRoot && sums[r] != 3 {
			t.Errorf("world rank %d: reduction = %v, want 3", r, sums[r])
		}
		if bcasts[r] != r%2 {
			t.Errorf("world rank %d: bcast = %v, want %d", r, bcasts[r], r%2)
		}
	}
}

func TestSplitSequentialRounds(t *testing.T) {
	// Two Split rounds back to back must not interfere.
	sim, w := newWorld(t, 2, 2)
	run(t, sim, w, func(c *Ctx) {
		first, err := c.Split(c.Rank()%2, 0)
		if err != nil {
			t.Error(err)
			return
		}
		second, err := c.Split(0, c.Rank()) // everyone together
		if err != nil {
			t.Error(err)
			return
		}
		if first.Size() != 2 || second.Size() != 4 {
			t.Errorf("round sizes %d/%d, want 2/4", first.Size(), second.Size())
		}
		if second.Rank() != c.Rank() {
			t.Errorf("second round rank %d, want world order %d", second.Rank(), c.Rank())
		}
	})
}

func TestCommViewValidation(t *testing.T) {
	sim, w := newWorld(t, 2, 1)
	run(t, sim, w, func(c *Ctx) {
		comm, err := c.Split(0, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if err := comm.Send(9, 1, units.KiB, 0, nil); err == nil {
			t.Error("send to out-of-comm rank must fail")
		}
		if err := comm.Send(0, -1, units.KiB, 0, nil); err == nil && comm.Rank() == 0 {
			t.Error("negative comm tag must fail")
		}
		if _, err := comm.Bcast(9, units.KiB, 0, nil); err == nil {
			t.Error("invalid comm root must fail")
		}
		if _, err := comm.Reduce(0, units.KiB, 0, 0, nil); err == nil {
			t.Error("nil comm operator must fail")
		}
		if _, err := comm.WorldRank(0); err != nil {
			t.Error("valid translation failed")
		}
	})
}
