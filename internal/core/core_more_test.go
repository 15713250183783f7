package core

import (
	"testing"

	"repro/internal/blade"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/verbs"
)

func TestOptionFactories(t *testing.T) {
	s := Smart()
	if s.Policy != PerThreadDoorbell || !s.WorkReqThrottle || !s.Backoff ||
		!s.DynamicLimit || !s.CoroThrottle {
		t.Fatalf("Smart() = %+v", s)
	}
	b := Baseline(PerThreadQP)
	if b.WorkReqThrottle || b.Backoff || b.DynamicLimit || b.CoroThrottle {
		t.Fatalf("Baseline() enables techniques: %+v", b)
	}
}

func TestOptionDefaults(t *testing.T) {
	o := Smart()
	o.withDefaults()
	if o.Depth != 8 || initialCMax != 8 {
		t.Fatalf("defaults: %+v", o)
	}
	if o.UpdateDelta != 8*sim.Millisecond {
		t.Fatalf("epoch constant: Δ=%v", o.UpdateDelta)
	}
	if o.backoffMax() != 1024*o.BackoffUnit {
		t.Fatalf("t_M = %v, want 1024*t0", o.backoffMax())
	}
	if o.GammaHigh != 0.5 || o.GammaLow != 0.1 {
		t.Fatalf("watermarks: %v/%v", o.GammaHigh, o.GammaLow)
	}
}

func TestPerThreadDoorbellBeyondHardwareLimit(t *testing.T) {
	// More threads than doorbells: allocation must wrap (footnote 4)
	// rather than fail.
	cl, rt := testRigParams(t, 20, 1, 8)
	seen := map[int]int{}
	for _, th := range rt.Threads() {
		seen[th.qps[0].Doorbell().Index]++
	}
	if len(seen) != 8 {
		t.Fatalf("doorbells used = %d, want all 8", len(seen))
	}
	shared := 0
	for _, n := range seen {
		if n > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("20 threads on 8 doorbells must share")
	}
	_ = cl
}

// testRigParams builds a rig with a custom doorbell hardware limit.
func testRigParams(t *testing.T, threads, blades, maxDB int) (interface{}, *Runtime) {
	t.Helper()
	p := rnic.Default()
	p.MaxDoorbells = maxDB
	eng := sim.New(7)
	nic := rnic.New(eng, "c", p)
	var targets []verbs.Target
	for i := 0; i < blades; i++ {
		targets = append(targets, verbs.Target{
			NIC: rnic.New(eng, "m", p),
			Mem: blade.New(i+1, blade.DRAM, 1<<20),
		})
	}
	rt, err := New(nic, targets, threads, Baseline(PerThreadDoorbell))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Stop(); eng.Stop() })
	return nil, rt
}

func TestSyncWithNothingPendingReturns(t *testing.T) {
	cl, rt := testRig(t, 1, 1, Baseline(PerThreadDoorbell))
	done := false
	rt.Thread(0).Spawn("w", func(c *Ctx) {
		c.Sync() // must not block
		done = true
	})
	cl.Eng.Run(sim.Millisecond)
	if !done {
		t.Fatal("Sync with no pending WRs blocked")
	}
}

func TestBackoffDisabledDoesNotSleep(t *testing.T) {
	cl, rt := testRig(t, 1, 1, Baseline(PerThreadDoorbell)) // no Backoff
	mem := cl.Memories[0].Mem
	addr := mem.Alloc(8)
	mem.Store8(addr.Offset, 1)
	var elapsed sim.Time
	rt.Thread(0).Spawn("w", func(c *Ctx) {
		start := c.Now()
		c.BackoffCASSync(addr, 99, 100) // fails, but no backoff configured
		elapsed = c.Now() - start
	})
	cl.Eng.Run(sim.Second)
	// One CAS round trip only; no multi-microsecond backoff on top.
	if elapsed > 10*sim.Microsecond {
		t.Fatalf("CAS with backoff disabled took %v", elapsed)
	}
}

func TestBackoffTruncatedAtTMax(t *testing.T) {
	// Without the dynamic limit t_max is pinned at t_M = 1024·t0; a small
	// t0 keeps the 12-attempt run short while the exponent still
	// overshoots t_M.
	opts := Options{Policy: PerThreadDoorbell, Backoff: true, BackoffUnit: 10 * sim.Nanosecond}
	cl, rt := testRig(t, 1, 1, opts)
	mem := cl.Memories[0].Mem
	addr := mem.Alloc(8)
	mem.Store8(addr.Offset, 1)
	var worst sim.Time
	rt.Thread(0).Spawn("w", func(c *Ctx) {
		for i := 0; i < 12; i++ { // exponent would reach 2^12 * t0 without truncation
			start := c.Now()
			c.BackoffCASSync(addr, 99, 100)
			if d := c.Now() - start; d > worst {
				worst = d
			}
		}
	})
	cl.Eng.Run(10 * sim.Second)
	o := rt.Options()
	limit := o.backoffMax() + o.BackoffUnit + 10*sim.Microsecond
	if worst > limit {
		t.Fatalf("worst attempt %v exceeds truncated limit %v", worst, limit)
	}
}

func TestCoroThrottleLimitsConcurrentOps(t *testing.T) {
	opts := Options{Policy: PerThreadDoorbell, CoroThrottle: true, Depth: 8}
	cl, rt := testRig(t, 1, 1, opts)
	addr := cl.Memories[0].Mem.Alloc(8)
	th := rt.Thread(0)
	th.setCMaxCoro(2)
	inOp, maxInOp := 0, 0
	for d := 0; d < 8; d++ {
		th.Spawn("w", func(c *Ctx) {
			for i := 0; i < 5; i++ {
				c.BeginOp()
				inOp++
				if inOp > maxInOp {
					maxInOp = inOp
				}
				c.ReadSync(addr, make([]byte, 8))
				inOp--
				c.EndOp()
			}
		})
	}
	cl.Eng.Run(sim.Second)
	if maxInOp > 2 {
		t.Fatalf("concurrent ops reached %d with c_max=2", maxInOp)
	}
	if maxInOp == 0 {
		t.Fatal("no ops ran")
	}
}

func TestRetryTickerRecoversWhenContentionEnds(t *testing.T) {
	opts := Options{Policy: PerThreadDoorbell, Backoff: true, DynamicLimit: true,
		CoroThrottle: true, Depth: 8, RetryWindow: 100 * sim.Microsecond}
	cl, rt := testRig(t, 1, 1, opts)
	mem := cl.Memories[0].Mem
	addr := mem.Alloc(8)
	mem.Store8(addr.Offset, 1)
	th := rt.Thread(0)
	th.Spawn("w", func(c *Ctx) {
		// Phase 1: pure conflicts -> knobs tighten.
		for c.Now() < 3*sim.Millisecond {
			c.BeginOp()
			c.BackoffCASSync(addr, 999, 1000)
			c.EndOp()
		}
		// Phase 2: pure successes -> knobs must relax again.
		v := mem.Load8(addr.Offset)
		for c.Now() < 10*sim.Millisecond {
			c.BeginOp()
			if old, ok := c.BackoffCASSync(addr, v, v+1); ok {
				v = v + 1
			} else {
				v = old
			}
			c.EndOp()
		}
	})
	cl.Eng.Run(11 * sim.Millisecond)
	if th.CMaxCoro() != 8 {
		t.Fatalf("c_max = %d after contention ended, want back at depth 8", th.CMaxCoro())
	}
	if th.TMax() != rt.Options().BackoffUnit {
		t.Fatalf("t_max = %v after contention ended, want t0 %v", th.TMax(), rt.Options().BackoffUnit)
	}
}

func TestFAABuffered(t *testing.T) {
	cl, rt := testRig(t, 1, 1, Baseline(PerThreadDoorbell))
	addr := cl.Memories[0].Mem.Alloc(8)
	rt.Thread(0).Spawn("w", func(c *Ctx) {
		w1 := c.FAA(addr, 2)
		w2 := c.FAA(addr, 3)
		c.PostSend()
		c.Sync()
		if w1.Status != rnic.StatusSuccess || w2.Status != rnic.StatusSuccess {
			t.Errorf("FAA statuses = %v, %v", w1.Status, w2.Status)
		} else if w1.Result != 0 || w2.Result != 2 {
			// RC QP ordering: first FAA executes first.
			t.Errorf("FAA results = %d, %d", w1.Result, w2.Result)
		}
	})
	cl.Eng.Run(sim.Second)
	if v := cl.Memories[0].Mem.Load8(8); v != 5 {
		t.Fatalf("final = %d", v)
	}
}

func TestMultiplexedQPContentionSlowerThanPrivate(t *testing.T) {
	run := func(opts Options) sim.Time {
		cl, rt := testRig(t, 8, 1, opts)
		addr := cl.Memories[0].Mem.Alloc(8)
		var last sim.Time
		for i := 0; i < 8; i++ {
			rt.Thread(i).Spawn("w", func(c *Ctx) {
				buf := make([]byte, 8)
				for j := 0; j < 100; j++ {
					c.ReadSync(addr, buf)
				}
				if c.Now() > last {
					last = c.Now()
				}
			})
		}
		cl.Eng.Run(sim.Second)
		return last
	}
	shared := run(Baseline(SharedQP))
	private := run(Baseline(PerThreadDoorbell))
	if shared <= private {
		t.Fatalf("shared QP (%v) not slower than private (%v)", shared, private)
	}
}

func TestThreadAccessors(t *testing.T) {
	cl, rt := testRig(t, 2, 2, Smart())
	th := rt.Thread(1)
	if th.ID != 1 {
		t.Fatalf("ID = %d", th.ID)
	}
	if th.QP(cl.Memories[1].Mem.ID) == nil {
		t.Fatal("QP lookup by blade ID failed")
	}
	if th.CMax() != 8 {
		t.Fatalf("CMax = %d", th.CMax())
	}
	if rt.Engine() != cl.Eng {
		t.Fatal("Engine() mismatch")
	}
	if len(rt.Targets()) != 2 {
		t.Fatal("Targets() wrong")
	}
	if rt.Stopped() {
		t.Fatal("not yet stopped")
	}
	rt.Stop()
	if !rt.Stopped() {
		t.Fatal("Stop did not mark runtime")
	}
}
