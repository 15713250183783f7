package core

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/blade"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// TestOpPathAllocsZero pins the op path at zero heap allocations in
// steady state: inside BeginOp…EndOp the WRs come from the coroutine's
// free list, Buf from its arena, and the completion callback is the
// one bound at Spawn.
func TestOpPathAllocsZero(t *testing.T) {
	for _, b := range []verbs.Batching{{}, {Postlist: true}} {
		t.Run(b.String(), func(t *testing.T) {
			opts := Baseline(PerThreadDoorbell)
			opts.Batching = b
			cl, rt := testRig(t, 1, 1, opts)
			addr := cl.Memories[0].Mem.Alloc(1024)
			buf := make([]byte, 8)
			ops := []struct {
				name string
				op   func(c *Ctx)
			}{
				{"ReadSync", func(c *Ctx) { c.ReadSync(addr, buf) }},
				{"CASSync", func(c *Ctx) { c.CASSync(addr, 0, 0) }},
				{"FAASync", func(c *Ctx) { c.FAASync(addr, 1) }},
				{"Read×4+PostSend+Sync", func(c *Ctx) {
					for i := uint64(0); i < 4; i++ {
						c.Read(addr.Add(8*i), buf)
					}
					c.PostSend()
					c.Sync()
				}},
				{"Buf", func(c *Ctx) {
					c.ReadSync(addr, c.Buf(1024))
					c.WriteSync(addr.Add(8), c.Buf(8))
				}},
			}

			// The coroutine runs one op per wake; each measured call wakes
			// it and runs the engine until it parks again.
			var op func(*Ctx)
			c := rt.Thread(0).Spawn("ops", func(c *Ctx) {
				for {
					c.Proc().Suspend()
					c.BeginOp()
					op(c)
					c.EndOp()
				}
			})
			cl.Eng.Run(0)
			for _, o := range ops {
				op = o.op
				before := rt.Thread(0).Stats.Ops
				allocs := testing.AllocsPerRun(100, func() {
					c.Proc().Wake()
					cl.Eng.Run(0)
				})
				if ran := rt.Thread(0).Stats.Ops - before; ran != 101 {
					t.Fatalf("%s: %d ops ran, want 101", o.name, ran)
				}
				if allocs != 0 {
					t.Errorf("%s: %v allocs per op, want 0", o.name, allocs)
				}
			}
		})
	}
}

// TestHelperChainReusesOneWR pins the helper release: ReadSync,
// WriteSync, CASSync and FAASync hand their WR back as they return, so
// a long CAS-retry chain inside one op reuses one WR instead of growing
// the coroutine's free list to the chain's length.
func TestHelperChainReusesOneWR(t *testing.T) {
	cl, rt := testRig(t, 1, 1, Baseline(PerThreadDoorbell))
	mem := cl.Memories[0].Mem
	addr := mem.Alloc(8)
	mem.Store8(addr.Offset, 1)
	buf := make([]byte, 8)
	c := rt.Thread(0).Spawn("chain", func(c *Ctx) {
		for {
			c.Proc().Suspend()
			c.BeginOp()
			for i := 0; i < 64; i++ {
				if _, ok := c.CASSync(addr, 0, 2); ok {
					panic("CAS against a mismatched compare swapped")
				}
				c.ReadSync(addr, buf)
			}
			c.EndOp()
		}
	})
	cl.Eng.Run(0)
	c.Proc().Wake() // warm-up op
	cl.Eng.Run(0)
	failedBefore := rt.Thread(0).Stats.CASFailed
	allocs := testing.AllocsPerRun(20, func() {
		c.Proc().Wake()
		cl.Eng.Run(0)
	})
	if got := rt.Thread(0).Stats.CASFailed - failedBefore; got != 21*64 {
		t.Fatalf("%d failed CAS rounds, want %d", got, 21*64)
	}
	if allocs != 0 {
		t.Errorf("%v allocs per 64-round op, want 0", allocs)
	}
	if n := len(c.freeWRs); n > 2 {
		t.Errorf("free list holds %d WRs after the chains, want at most 2", n)
	}
}

// TestReuseBufKeepsBufferUnlessTimedOut pins Ctx.ReuseBuf, the retry
// loop's way back to its own buffer: inside an op, after a READ into b
// completed, it returns b's backing array, zeroed; a nil b or another
// length carves a fresh Buf; and once a completion of the op has timed
// out it returns a fresh buffer, so the timed-out READ's late execution
// lands in the old one, which nobody reads again (EndOp's rule,
// TestTimedOutOpIsNotReused).
func TestReuseBufKeepsBufferUnlessTimedOut(t *testing.T) {
	cl, rt := testRig(t, 1, 1, faultOpts(10*sim.Microsecond, 0))
	inj := &countInjector{}
	cl.Computes[0].NIC.SetFault(inj)
	mem := cl.Memories[0].Mem
	slow, fast := mem.Alloc(8), mem.Alloc(8)
	mem.Store8(slow.Offset, 42)
	mem.Store8(fast.Offset, 7)

	var first, again, other, late, fresh []byte
	var readBack, zeroed uint64
	rt.Thread(0).Spawn("w", func(c *Ctx) {
		c.BeginOp()
		first = c.ReuseBuf(nil, 8)
		c.ReadSync(fast, first)
		again = c.ReuseBuf(first, 8)
		c.ReadSync(fast, again)
		readBack = binary.LittleEndian.Uint64(again)
		again = c.ReuseBuf(again, 8)
		zeroed = binary.LittleEndian.Uint64(again)
		other = c.ReuseBuf(again, 16)
		c.EndOp()

		c.BeginOp()
		inj.n, inj.verdict = 1, rnic.Verdict{Action: rnic.ActDelay, Factor: 50}
		late = c.ReuseBuf(nil, 8)
		c.ReadSync(slow, late)
		fresh = c.ReuseBuf(late, 8)
		c.EndOp()
	})
	cl.Eng.Run(sim.Millisecond)

	if len(first) != 8 || &again[0] != &first[0] {
		t.Fatal("ReuseBuf after a completed READ did not return the same buffer")
	}
	if readBack != 7 || zeroed != 0 {
		t.Errorf("reused buffer: read %d, then %d after ReuseBuf; want 7, then zeroed", readBack, zeroed)
	}
	if len(other) != 16 || &other[0] == &first[0] {
		t.Error("ReuseBuf of another length did not carve a fresh buffer")
	}
	if &fresh[0] == &late[0] {
		t.Fatal("ReuseBuf after a watchdog timeout returned the timed-out READ's buffer")
	}
	if got := binary.LittleEndian.Uint64(late); got != 42 {
		t.Errorf("late card READ never landed in the old buffer: %d", got)
	}
	if got := binary.LittleEndian.Uint64(fresh); got != 0 {
		t.Errorf("the fresh buffer holds %d, want 0: the late READ reached it", got)
	}
}

// TestTimedOutOpIsNotReused pins EndOp's exception: an op one of whose
// WRs timed out may still be executed by the card, so its WR and Buf
// are dropped, not recycled. A delay fault well past WRTimeout makes
// the card's READ land after the op has ended; it must land in the
// dropped buffer while the next op works on fresh memory. The *Sync
// helpers that run later in the timed-out op keep their WRs in the op
// too, instead of releasing them early.
func TestTimedOutOpIsNotReused(t *testing.T) {
	cl, rt := testRig(t, 1, 1, faultOpts(10*sim.Microsecond, 0))
	inj := &countInjector{}
	cl.Computes[0].NIC.SetFault(inj)
	mem := cl.Memories[0].Mem
	slow, fast := mem.Alloc(8), mem.Alloc(8)
	mem.Store8(slow.Offset, 42)
	mem.Store8(fast.Offset, 7)

	type opMem struct {
		wr     *verbs.WR
		buf    []byte
		atEnd  uint64 // buf's contents when EndOp ran
		status rnic.Status
		opWRs  []*verbs.WR // the op's WRs still held at EndOp
	}
	read := func(c *Ctx, addr blade.Addr, then func()) opMem {
		c.BeginOp()
		buf := c.Buf(8)
		wr := c.Read(addr, buf)
		c.PostSend()
		c.Sync()
		m := opMem{wr: wr, buf: buf, atEnd: binary.LittleEndian.Uint64(buf), status: wr.Status}
		if then != nil {
			then()
		}
		m.opWRs = slices.Clone(c.opWRs)
		c.EndOp()
		return m
	}
	var warm1, warm2, late, next opMem
	var nextFree []*verbs.WR // the free list once the next op's helpers ran
	rt.Thread(0).Spawn("w", func(c *Ctx) {
		warm1 = read(c, fast, nil)
		warm2 = read(c, fast, nil)
		inj.n, inj.verdict = 1, rnic.Verdict{Action: rnic.ActDelay, Factor: 50}
		late = read(c, slow, func() {
			freeBefore := len(c.freeWRs)
			c.ReadSync(fast, make([]byte, 8))
			c.CASSync(fast, 0, 0)
			c.FAASync(fast, 0)
			if len(c.freeWRs) != freeBefore {
				t.Error("a helper after the timeout released its WR early")
			}
		})
		next = read(c, fast, func() {
			// These helpers release early; their WR is on the free list.
			c.ReadSync(fast, make([]byte, 8))
			c.CASSync(fast, 0, 0)
			nextFree = slices.Clone(c.freeWRs)
		})
	})
	cl.Eng.Run(sim.Millisecond)

	if warm2.wr != warm1.wr || &warm2.buf[0] != &warm1.buf[0] {
		t.Fatal("a cleanly ended op's WR and Buf were not reused")
	}
	if late.status != rnic.StatusTimeout || late.atEnd != 0 {
		t.Fatalf("delayed READ: status %v, data %d at EndOp; want a timeout before any data", late.status, late.atEnd)
	}
	if next.wr == late.wr || &next.buf[0] == &late.buf[0] {
		t.Error("the op after a timeout reused the timed-out op's WR or Buf")
	}
	if len(late.opWRs) != 4 || late.opWRs[0] != late.wr {
		t.Fatalf("timed-out op held %d WRs at its end, want its READ and three helpers", len(late.opWRs))
	}
	if len(nextFree) != 1 {
		t.Errorf("next op's helpers left %d WRs on the free list, want 1", len(nextFree))
	}
	for _, wr := range append(next.opWRs, nextFree...) {
		if slices.Contains(late.opWRs, wr) {
			t.Error("the op after a timeout reused a WR the timed-out op took")
		}
	}
	if got := binary.LittleEndian.Uint64(late.buf); got != 42 {
		t.Errorf("late card READ never landed in the dropped buffer: %d", got)
	}
	if next.status != rnic.StatusSuccess || next.atEnd != 7 || binary.LittleEndian.Uint64(next.buf) != 7 {
		t.Errorf("next op: status %v, data %d at EndOp, %d after the late READ; want 7 both times",
			next.status, next.atEnd, binary.LittleEndian.Uint64(next.buf))
	}
	// The eight clean WRs' watchdogs (three ops' READs, five helpers)
	// fire after their completions, and the timed-out READ's card
	// completion arrives after its watchdog.
	if s := rt.Thread(0).cq.Stale; s != 9 {
		t.Errorf("CQ.Stale = %d, want 9", s)
	}
}
