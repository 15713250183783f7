package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestThrottledBatchSwitchesTwicePerOp pins the staged submission loop
// on tab1's shape: a throttled coroutine posting batches of 64 READs
// (C_max starts at 8, so most WRs wait for a credit) is switched into
// at most twice per op — once when the last WR of its post is launched
// and once at Sync's wake. The reference loop, which parks the
// coroutine at every credit wait and every post, switches into it at
// least 65 times per op.
func TestThrottledBatchSwitchesTwicePerOp(t *testing.T) {
	for _, ref := range []bool{false, true} {
		opts := Baseline(PerThreadDoorbell)
		opts.WorkReqThrottle = true
		cl, rt := testRig(t, 1, 1, opts)
		addr := cl.Memories[0].Mem.Alloc(64 * 8)
		rt.Thread(0).Spawn("reader", func(c *Ctx) {
			for {
				c.BeginOp()
				for k := uint64(0); k < 64; k++ {
					c.Read(addr.Add(8*k), c.Buf(8))
				}
				if ref {
					c.refPostSend()
					c.refSync()
				} else {
					c.PostSend()
					c.Sync()
				}
				c.EndOp()
			}
		})
		// The window stays clear of the C_max tuner's first wake, at
		// UpdateDelta (8 ms). Every op's switches come before its EndOp,
		// and the op in progress at the window's end has had at most one.
		th := rt.Thread(0)
		cl.Eng.Run(200 * sim.Microsecond)
		ops, switches := th.Stats.Ops, cl.Eng.Switches()
		cl.Eng.Run(2 * sim.Millisecond)
		ops, switches = th.Stats.Ops-ops, cl.Eng.Switches()-switches
		if ops < 20 {
			t.Fatalf("ref=%v: only %d ops ran in the window", ref, ops)
		}
		t.Logf("ref=%v: %d switches over %d ops", ref, switches, ops)
		if ref {
			if switches < 65*(ops-1) {
				t.Errorf("reference: %d switches over %d ops, want at least 65 per op", switches, ops)
			}
		} else if switches > 2*ops+1 {
			t.Errorf("staged: %d switches over %d ops, want at most 2 per op", switches, ops)
		}
	}
}

// BenchmarkPostSendBatch measures the host cost of one op of the micro
// READ path: BeginOp, a batch of READs, PostSend, Sync, EndOp, on one
// coroutine, with and without work-request throttling. Steady state
// allocates nothing.
func BenchmarkPostSendBatch(b *testing.B) {
	for _, throttle := range []bool{false, true} {
		for _, n := range []uint64{8, 64} {
			b.Run(fmt.Sprintf("throttle=%v/batch=%d", throttle, n), func(b *testing.B) {
				opts := Baseline(PerThreadDoorbell)
				opts.WorkReqThrottle = throttle
				cl, rt := testRig(b, 1, 1, opts)
				addr := cl.Memories[0].Mem.Alloc(n * 8)
				op := func(c *Ctx) {
					c.BeginOp()
					for k := uint64(0); k < n; k++ {
						c.Read(addr.Add(8*k), c.Buf(8))
					}
					c.PostSend()
					c.Sync()
					c.EndOp()
				}
				rt.Thread(0).Spawn("bench", func(c *Ctx) {
					for i := 0; i < 10; i++ {
						op(c) // warm the WR free list, the arena and the pools
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						op(c)
					}
					b.StopTimer()
					rt.Stop() // the C_max tuner exits at its next wake
				})
				cl.Eng.Run(0)
			})
		}
	}
}
