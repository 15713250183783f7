package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestThrottledBatchSwitchesOncePerOp pins the staged submission loop
// on tab1's shape: a throttled coroutine posting batches of 64 READs
// with one Sync (C_max starts at 8, so most WRs wait for a credit) is
// switched into at most once per op, at Sync's wake: the stage that
// launches its last WR leaves it parked on its completions. The
// reference loop, which parks the coroutine at every credit wait and
// every post, switches into it at least 65 times per op.
func TestThrottledBatchSwitchesOncePerOp(t *testing.T) {
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
					c.Sync()
				}
				c.EndOp()
			}
		})
		// The window stays clear of the C_max tuner's first wake, at
		// UpdateDelta (8 ms). Every op's switch comes before its EndOp,
		// and the op in progress at the window's end may have had it.
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
		} else if switches > ops+1 {
			t.Errorf("staged: %d switches over %d ops, want at most 1 per op", switches, ops)
		}
	}
}

// TestDependentReadsSwitchOncePerRoundTrip: an op of k dependent
// ReadSyncs, each READ's address taken from the previous one's data,
// is switched into exactly k times — once per round trip, at the
// READ's completion — with and without work-request throttling. Every
// post parks (the QP-lock hold is a timed wait), so each ends in a
// stage that leaves the coroutine parked on its READ.
func TestDependentReadsSwitchOncePerRoundTrip(t *testing.T) {
	const k, ops = 5, 50
	for _, throttle := range []bool{false, true} {
		opts := Baseline(PerThreadDoorbell)
		opts.WorkReqThrottle = throttle
		cl, rt := testRig(t, 1, 1, opts)
		base := cl.Memories[0].Mem.Alloc(8 * k)
		// Slot j holds the offset of slot j+1: a pointer chain.
		for j := uint64(0); j+1 < k; j++ {
			cl.Memories[0].Mem.Store8(base.Add(8*j).Offset, 8*(j+1))
		}
		var perOp []uint64
		rt.Thread(0).Spawn("chaser", func(c *Ctx) {
			for i := 0; i < ops; i++ {
				c.BeginOp()
				before := cl.Eng.Switches()
				next := uint64(0)
				for j := 0; j < k; j++ {
					buf := c.Buf(8)
					c.ReadSync(base.Add(next), buf)
					next = binary.LittleEndian.Uint64(buf)
				}
				perOp = append(perOp, cl.Eng.Switches()-before)
				c.EndOp()
			}
			rt.Stop()
		})
		cl.Eng.Run(0)
		if len(perOp) != ops {
			t.Fatalf("throttle=%v: %d ops ran, want %d", throttle, len(perOp), ops)
		}
		for i, n := range perOp {
			if n != k {
				t.Fatalf("throttle=%v: op %d switched into its coroutine %d times, want %d", throttle, i, n, k)
			}
		}
	}
}

// BenchmarkPostSendBatch measures the host cost of one op of the micro
// READ path: BeginOp, a batch of READs, Sync, EndOp, on one
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
