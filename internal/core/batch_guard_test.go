package core

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// Regression: a coalescing buffer still holding unflushed WRs when the
// runtime stops (or the engine unwinds) must not submit them, deliver
// completions, or leak card slots. Two orderings are covered:
//
//  1. Runtime.Stop while the engine keeps running — the armed deadline
//     timer fires, wakes the flusher, and the flusher must observe the
//     stopped runtime and decline to flush.
//  2. Engine.Stop with the timer still pending — the flusher process
//     is unwound while parked and the timer never fires; afterwards
//     Schedule and Run are no-ops.
func TestCoalescerStopHoldsUnflushedWRs(t *testing.T) {
	const buffered = 3
	b := verbs.Batching{Coalesce: true, CoalesceBatch: 32, FlushDeadline: sim.Millisecond}

	setup := func(t *testing.T) (*cluster.Cluster, *Runtime) {
		cl := cluster.New(cluster.Config{
			ComputeBlades: 1,
			MemoryBlades:  1,
			BladeCapacity: 1 << 20,
			Seed:          7,
		})
		opts := Baseline(PerThreadDoorbell)
		opts.Batching = b
		rt, err := New(cl.Computes[0].NIC, cl.Targets(), 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		region := cl.Memories[0].Mem.Alloc(64)
		rt.Thread(0).Spawn("holder", func(c *Ctx) {
			for i := uint64(0); i < buffered; i++ {
				c.Read(region.Add(i*8), make([]byte, 8))
			}
			// Post without Sync: everything lands in the coalescing
			// buffer (batch 32 never fills) and the coroutine unwinds
			// with the deadline timer armed 1 ms out.
			c.PostSend()
		})
		cl.Eng.Run(10 * sim.Microsecond)
		th := rt.Thread(0)
		if got := th.coal.Buffered(); got != buffered {
			t.Fatalf("coalescer holds %d WRs before stop, want %d", got, buffered)
		}
		if th.qps[0].Posted != 0 || cl.Computes[0].NIC.Outstanding() != 0 {
			t.Fatalf("WRs reached the card before any flush trigger: posted=%d outstanding=%d",
				th.qps[0].Posted, cl.Computes[0].NIC.Outstanding())
		}
		return cl, rt
	}

	assertHeld := func(t *testing.T, cl *cluster.Cluster, rt *Runtime) {
		t.Helper()
		th := rt.Thread(0)
		if th.qps[0].Posted != 0 {
			t.Errorf("%d WRs submitted after stop", th.qps[0].Posted)
		}
		if th.Stats.WRs != 0 {
			t.Errorf("completions delivered after stop: %d", th.Stats.WRs)
		}
		if got := th.coal.Buffered(); got != buffered {
			t.Errorf("coalescer holds %d WRs after stop, want still %d", got, buffered)
		}
		if st := th.CoalesceStats(); st.FlushFull+st.FlushDeadline+st.FlushSync != 0 {
			t.Errorf("flushes ran after stop: %+v", st)
		}
		// No card slot was ever consumed: the held WRs leak nothing
		// the card pool would miss.
		if n := cl.Computes[0].NIC.Outstanding(); n != 0 {
			t.Errorf("%d card slots leaked by held WRs", n)
		}
	}

	t.Run("runtime-stop-then-timer", func(t *testing.T) {
		cl, rt := setup(t)
		defer cl.Stop()
		rt.Stop()
		// The deadline timer is still armed; let it fire. The flusher
		// wakes, sees the stopped runtime, and exits without
		// submitting anything.
		cl.Eng.Run(2 * sim.Millisecond)
		assertHeld(t, cl, rt)
	})

	t.Run("engine-stop-with-timer-pending", func(t *testing.T) {
		cl, rt := setup(t)
		rt.Stop()
		cl.Stop() // unwinds the parked flusher; the timer never fires
		assertHeld(t, cl, rt)

		// Post-stop, the engine is inert: Schedule is a no-op and Run
		// advances nothing, so no late flush can materialize.
		fired := false
		cl.Eng.Schedule(0, func() { fired = true })
		cl.Eng.Run(10 * sim.Millisecond)
		if fired {
			t.Error("callback scheduled after Stop ran")
		}
		assertHeld(t, cl, rt)
	})
}

// Regression: the deadline timer must not wake the flusher while it is
// still inside an earlier flush's post. With a FlushDeadline shorter
// than one post, and throttled coroutines whose WRs wait in the buffer
// for a credit-starved Sync, a buffer refilled during a deadline flush
// comes due before that flush's QP-lock and doorbell holds end. Waking
// the flusher then panics in the sim kernel (a Wake of a process
// blocked in a post); the flush in progress must pick the due buffer
// up when it returns instead.
func TestCoalescerDeadlineShorterThanPost(t *testing.T) {
	cl := cluster.New(cluster.Config{
		ComputeBlades: 1,
		MemoryBlades:  1,
		BladeCapacity: 1 << 20,
		Seed:          11,
	})
	defer cl.Stop()
	opts := Baseline(PerThreadDoorbell)
	opts.WorkReqThrottle = true
	opts.Batching = verbs.Batching{Coalesce: true, CoalesceBatch: 64, FlushDeadline: 50 * sim.Nanosecond}
	rt, err := New(cl.Computes[0].NIC, cl.Targets(), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	region := cl.Memories[0].Mem.Alloc(4096)
	th := rt.Thread(0)
	for k := 0; k < 8; k++ {
		th.Spawn(fmt.Sprintf("c%d", k), func(c *Ctx) {
			for i := uint64(0); ; i++ {
				for j := uint64(0); j < 3; j++ {
					c.Read(region.Add((i*3+j)%512*8), make([]byte, 8))
				}
				c.PostSend()
				c.Sync()
			}
		})
	}
	cl.Eng.Run(200 * sim.Microsecond)
	st := th.CoalesceStats()
	if st.FlushDeadline == 0 || st.Overruns == 0 {
		t.Fatalf("no deadline flush ran late (%+v): the case this pins never happened", st)
	}
	if th.Stats.WRs == 0 {
		t.Fatal("no WR completed")
	}
}
