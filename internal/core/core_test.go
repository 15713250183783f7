package core

import (
	"testing"

	"repro/internal/blade"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// testRig builds a 1-compute, nBlades-memory cluster and a runtime.
func testRig(t *testing.T, nThreads, nBlades int, opts Options) (*cluster.Cluster, *Runtime) {
	t.Helper()
	cl := cluster.New(cluster.Config{
		ComputeBlades: 1,
		MemoryBlades:  nBlades,
		BladeCapacity: 1 << 22,
		Seed:          99,
	})
	rt, err := New(cl.Computes[0].NIC, cl.Targets(), nThreads, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Stop(); cl.Stop() })
	return cl, rt
}

func TestPerThreadDoorbellPrivateDBs(t *testing.T) {
	_, rt := testRig(t, 24, 3, Baseline(PerThreadDoorbell))
	for _, th := range rt.Threads() {
		db := th.qps[0].Doorbell()
		for _, qp := range th.qps {
			if qp.Doorbell() != db {
				t.Fatalf("thread %d QPs on different doorbells", th.ID)
			}
		}
	}
	seen := map[int]int{}
	for _, th := range rt.Threads() {
		seen[th.qps[0].Doorbell().Index]++
	}
	for db, n := range seen {
		if n != 1 {
			t.Fatalf("doorbell %d shared by %d threads under thread-aware allocation", db, n)
		}
	}
}

func TestPerThreadQPSharesDoorbells(t *testing.T) {
	_, rt := testRig(t, 24, 1, Baseline(PerThreadQP))
	seen := map[int]int{}
	for _, th := range rt.Threads() {
		seen[th.qps[0].Doorbell().Index]++
	}
	shared := 0
	for _, n := range seen {
		if n > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("24 threads on 12 default doorbells must share implicitly")
	}
	// But QPs themselves are private.
	qps := map[interface{}]bool{}
	for _, th := range rt.Threads() {
		if qps[th.qps[0]] {
			t.Fatal("per-thread QP policy shared a QP")
		}
		qps[th.qps[0]] = true
	}
}

func TestSharedQPSingleQP(t *testing.T) {
	_, rt := testRig(t, 8, 2, Baseline(SharedQP))
	first := rt.Thread(0)
	for _, th := range rt.Threads() {
		for j := range th.qps {
			if th.qps[j] != first.qps[j] {
				t.Fatal("shared-QP policy must share every QP")
			}
		}
	}
}

func TestMultiplexedQPGroups(t *testing.T) {
	_, rt := testRig(t, 10, 1, Baseline(MultiplexedQP))
	if rt.Thread(0).qps[0] != rt.Thread(3).qps[0] {
		t.Fatal("threads 0 and 3 must share a QP with q=4")
	}
	if rt.Thread(0).qps[0] == rt.Thread(4).qps[0] {
		t.Fatal("threads 0 and 4 must not share a QP with q=4")
	}
	// Last partial group (threads 8, 9) still has a QP.
	if rt.Thread(9).qps[0] == nil {
		t.Fatal("partial group unwired")
	}
}

func TestPerThreadContextCounts(t *testing.T) {
	cl, _ := testRig(t, 6, 1, Baseline(PerThreadContext))
	if got := cl.Computes[0].NIC.Contexts(); got != 6 {
		t.Fatalf("device contexts = %d, want 6", got)
	}
}

func TestSingleContextForOtherPolicies(t *testing.T) {
	cl, _ := testRig(t, 6, 1, Baseline(PerThreadDoorbell))
	if got := cl.Computes[0].NIC.Contexts(); got != 1 {
		t.Fatalf("device contexts = %d, want 1 (shared)", got)
	}
}

func TestReadWriteThroughCtx(t *testing.T) {
	cl, rt := testRig(t, 2, 2, Smart())
	addr := cl.Memories[1].Mem.Alloc(16)
	done := false
	rt.Thread(0).Spawn("worker", func(c *Ctx) {
		src := []byte("0123456789abcdef")
		c.WriteSync(addr, src)
		dst := make([]byte, 16)
		c.ReadSync(addr, dst)
		if string(dst) != string(src) {
			t.Errorf("roundtrip mismatch: %q", dst)
		}
		done = true
	})
	cl.Eng.Run(sim.Second)
	if !done {
		t.Fatal("coroutine did not finish")
	}
}

func TestBatchPostSync(t *testing.T) {
	cl, rt := testRig(t, 1, 1, Baseline(PerThreadDoorbell))
	mem := cl.Memories[0].Mem
	addrs := make([]blade.Addr, 8)
	for i := range addrs {
		addrs[i] = mem.Alloc(8)
		mem.Store8(addrs[i].Offset, uint64(i)*7)
	}
	done := false
	rt.Thread(0).Spawn("w", func(c *Ctx) {
		bufs := make([][]byte, 8)
		for i, a := range addrs {
			bufs[i] = make([]byte, 8)
			c.Read(a, bufs[i])
		}
		c.PostSend()
		c.Sync()
		for i := range bufs {
			v := uint64(bufs[i][0]) // values < 256, little endian
			if v != uint64(i)*7 {
				t.Errorf("slot %d = %d, want %d", i, v, uint64(i)*7)
			}
		}
		done = true
	})
	cl.Eng.Run(sim.Second)
	if !done {
		t.Fatal("batch did not complete")
	}
}

func TestCreditThrottleBoundsOutstanding(t *testing.T) {
	cl, rt := testRig(t, 2, 1, Options{Policy: PerThreadDoorbell, WorkReqThrottle: true})
	// Pin C_max at 4 before the run. The tuner's first candidate is
	// also 4, held for Δ (8 ms by default), longer than the run.
	for _, th := range rt.Threads() {
		th.updateCMax(4)
	}
	addr := cl.Memories[0].Mem.Alloc(8)
	maxOut := 0
	cl.Eng.Go("sampler", func(p *sim.Proc) {
		for i := 0; i < 2000; i++ {
			p.Sleep(2 * sim.Microsecond)
			if out := cl.Computes[0].NIC.Outstanding(); out > maxOut {
				maxOut = out
			}
		}
	})
	for _, th := range rt.Threads() {
		th.Spawn("w", func(c *Ctx) {
			buf := make([]byte, 8)
			for c.Now() < 3*sim.Millisecond {
				for i := 0; i < 32; i++ { // batch far above CMax
					c.Read(addr, buf)
				}
				c.PostSend()
				c.Sync()
			}
		})
	}
	cl.Eng.Run(4 * sim.Millisecond)
	if maxOut > 2*4 {
		t.Fatalf("outstanding reached %d, credit ceiling is 2 threads x 4", maxOut)
	}
	if maxOut == 0 {
		t.Fatal("no work observed")
	}
}

func TestNoThrottleAllowsDeepBatches(t *testing.T) {
	cl, rt := testRig(t, 1, 1, Baseline(PerThreadDoorbell))
	addr := cl.Memories[0].Mem.Alloc(8)
	maxOut := 0
	cl.Eng.Go("sampler", func(p *sim.Proc) {
		for i := 0; i < 500; i++ {
			p.Sleep(sim.Microsecond)
			if out := cl.Computes[0].NIC.Outstanding(); out > maxOut {
				maxOut = out
			}
		}
	})
	rt.Thread(0).Spawn("w", func(c *Ctx) {
		buf := make([]byte, 8)
		for i := 0; i < 64; i++ {
			c.Read(addr, buf)
		}
		c.PostSend()
		c.Sync()
	})
	cl.Eng.Run(sim.Millisecond)
	// A single thread's pipeline depth is bounded by RTT/post-cost
	// (≈20 with default parameters); it must at least clearly exceed
	// the throttled ceiling used elsewhere.
	if maxOut < 14 {
		t.Fatalf("outstanding peaked at %d; unthrottled batch of 64 should go deep", maxOut)
	}
}

func TestUpdateCMaxShiftsCredits(t *testing.T) {
	// The engine never runs, so the tuner never moves the ceiling.
	_, rt := testRig(t, 1, 1, Options{Policy: PerThreadDoorbell, WorkReqThrottle: true})
	th := rt.Thread(0)
	if th.CMax() != 8 || th.credits.Available() != 8 {
		t.Fatalf("initial cmax=%d credits=%d", th.CMax(), th.credits.Available())
	}
	th.updateCMax(12)
	if th.CMax() != 12 || th.credits.Available() != 12 {
		t.Fatalf("after raise: cmax=%d credits=%d", th.CMax(), th.credits.Available())
	}
	th.updateCMax(4)
	if th.CMax() != 4 || th.credits.Available() != 4 {
		t.Fatalf("after cut: cmax=%d credits=%d", th.CMax(), th.credits.Available())
	}
}

func TestCASSyncSemantics(t *testing.T) {
	cl, rt := testRig(t, 1, 1, Baseline(PerThreadDoorbell))
	mem := cl.Memories[0].Mem
	addr := mem.Alloc(8)
	mem.Store8(addr.Offset, 5)
	rt.Thread(0).Spawn("w", func(c *Ctx) {
		if old, ok := c.CASSync(addr, 5, 6); !ok || old != 5 {
			t.Errorf("CAS success path: old=%d ok=%v", old, ok)
		}
		if old, ok := c.CASSync(addr, 5, 7); ok || old != 6 {
			t.Errorf("CAS failure path: old=%d ok=%v", old, ok)
		}
		if old := c.FAASync(addr, 4); old != 6 {
			t.Errorf("FAA old=%d", old)
		}
	})
	cl.Eng.Run(sim.Second)
	th := rt.Thread(0)
	if th.Stats.CASTotal != 2 || th.Stats.CASFailed != 1 {
		t.Fatalf("CAS stats = %d/%d, want 2/1", th.Stats.CASTotal, th.Stats.CASFailed)
	}
	if mem.Load8(addr.Offset) != 10 {
		t.Fatalf("final value = %d, want 10", mem.Load8(addr.Offset))
	}
}

func TestBackoffDelaysFailedCAS(t *testing.T) {
	opts := Options{Policy: PerThreadDoorbell, Backoff: true}
	cl, rt := testRig(t, 1, 1, opts)
	mem := cl.Memories[0].Mem
	addr := mem.Alloc(8)
	mem.Store8(addr.Offset, 1)
	var firstFail, secondFail sim.Time
	rt.Thread(0).Spawn("w", func(c *Ctx) {
		c.BeginOp()
		start := c.Now()
		c.BackoffCASSync(addr, 99, 100) // fails
		firstFail = c.Now() - start
		start = c.Now()
		c.BackoffCASSync(addr, 99, 100) // fails again, longer delay
		secondFail = c.Now() - start
		c.EndOp()
	})
	cl.Eng.Run(sim.Second)
	t0 := rt.Options().BackoffUnit
	if firstFail < t0 {
		t.Fatalf("first failure elapsed %v, want >= backoff unit %v", firstFail, t0)
	}
	if secondFail <= firstFail {
		t.Fatalf("second failure (%v) should back off longer than first (%v)", secondFail, firstFail)
	}
}

func TestBackoffResetsOnSuccess(t *testing.T) {
	opts := Options{Policy: PerThreadDoorbell, Backoff: true}
	cl, rt := testRig(t, 1, 1, opts)
	mem := cl.Memories[0].Mem
	addr := mem.Alloc(8)
	rt.Thread(0).Spawn("w", func(c *Ctx) {
		c.BackoffCASSync(addr, 7, 8) // fail (value is 0)
		c.BackoffCASSync(addr, 7, 8) // fail
		if c.casAttempts != 2 {
			t.Errorf("attempts = %d, want 2", c.casAttempts)
		}
		c.BackoffCASSync(addr, 0, 1) // success
		if c.casAttempts != 0 {
			t.Errorf("attempts not reset on success: %d", c.casAttempts)
		}
	})
	cl.Eng.Run(sim.Second)
}

func TestRetryTickerGrowsTmaxUnderContention(t *testing.T) {
	opts := Options{Policy: PerThreadDoorbell, Backoff: true, DynamicLimit: true}
	cl, rt := testRig(t, 1, 1, opts)
	mem := cl.Memories[0].Mem
	addr := mem.Alloc(8)
	mem.Store8(addr.Offset, 1)
	th := rt.Thread(0)
	initial := th.TMax()
	th.Spawn("w", func(c *Ctx) {
		for c.Now() < 20*sim.Millisecond {
			c.BeginOp()
			c.BackoffCASSync(addr, 999, 1000) // always fails: γ = 1
			c.EndOp()
		}
	})
	cl.Eng.Run(25 * sim.Millisecond)
	if th.TMax() <= initial {
		t.Fatalf("tmax = %v did not grow from %v under 100%% retry rate", th.TMax(), initial)
	}
}

func TestRetryTickerShrinksCoroDepth(t *testing.T) {
	opts := Options{Policy: PerThreadDoorbell, Backoff: true, DynamicLimit: true, CoroThrottle: true, Depth: 8}
	cl, rt := testRig(t, 1, 1, opts)
	mem := cl.Memories[0].Mem
	addr := mem.Alloc(8)
	mem.Store8(addr.Offset, 1)
	th := rt.Thread(0)
	if th.CMaxCoro() != 8 {
		t.Fatalf("initial cmaxCoro = %d", th.CMaxCoro())
	}
	th.Spawn("w", func(c *Ctx) {
		for c.Now() < 10*sim.Millisecond {
			c.BeginOp()
			c.BackoffCASSync(addr, 999, 1000)
			c.EndOp()
		}
	})
	cl.Eng.Run(12 * sim.Millisecond)
	// The tail window after the workload stops can relax c_max by one
	// step (its last EndOp lands in a retry-free window), so accept a
	// small bound rather than exactly 1.
	if th.CMaxCoro() > 2 {
		t.Fatalf("cmaxCoro = %d under sustained conflicts, want near 1", th.CMaxCoro())
	}
	// t_max only starts growing after c_max hits its lower bound.
	if th.TMax() <= rt.Options().BackoffUnit {
		t.Fatalf("tmax = %v should have grown after cmax bottomed out", th.TMax())
	}
}

func TestCmaxTunerRuns(t *testing.T) {
	opts := Options{Policy: PerThreadDoorbell, WorkReqThrottle: true, UpdateDelta: 100 * sim.Microsecond}
	cl, rt := testRig(t, 1, 1, opts)
	addr := cl.Memories[0].Mem.Alloc(8)
	seen := map[int]bool{}
	cl.Eng.Go("watch", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			p.Sleep(20 * sim.Microsecond)
			seen[rt.Thread(0).CMax()] = true
		}
	})
	rt.Thread(0).Spawn("w", func(c *Ctx) {
		buf := make([]byte, 8)
		for c.Now() < 4*sim.Millisecond {
			for i := 0; i < 16; i++ {
				c.Read(addr, buf)
			}
			c.PostSend()
			c.Sync()
		}
	})
	cl.Eng.Run(4 * sim.Millisecond)
	if len(seen) < 3 {
		t.Fatalf("tuner visited %d distinct C_max values, want several candidates: %v", len(seen), seen)
	}
}

func TestBeginEndOpRetryCount(t *testing.T) {
	cl, rt := testRig(t, 1, 1, Baseline(PerThreadDoorbell))
	mem := cl.Memories[0].Mem
	addr := mem.Alloc(8)
	mem.Store8(addr.Offset, 3)
	var retries int
	rt.Thread(0).Spawn("w", func(c *Ctx) {
		c.BeginOp()
		c.CASSync(addr, 1, 2) // fail
		c.CASSync(addr, 1, 2) // fail
		c.CASSync(addr, 3, 4) // success
		retries = c.EndOp()
	})
	cl.Eng.Run(sim.Second)
	if retries != 2 {
		t.Fatalf("op retries = %d, want 2", retries)
	}
	if rt.Thread(0).Stats.Ops != 1 {
		t.Fatalf("ops = %d", rt.Thread(0).Stats.Ops)
	}
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[Policy]string{
		SharedQP: "shared-qp", MultiplexedQP: "multiplexed-qp",
		PerThreadQP: "per-thread-qp", PerThreadContext: "per-thread-context",
		PerThreadDoorbell: "per-thread-doorbell", Policy(99): "?",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
		// ParsePolicy inverts String on every real policy and nothing else.
		back, err := ParsePolicy(want)
		if real := want != "?"; (err == nil) != real || (real && back != p) {
			t.Errorf("ParsePolicy(%q) = %v, %v", want, back, err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	cl := cluster.New(cluster.Config{ComputeBlades: 1, MemoryBlades: 1, BladeCapacity: 1 << 20})
	defer cl.Stop()
	if _, err := New(cl.Computes[0].NIC, cl.Targets(), 0, Smart()); err == nil {
		t.Fatal("expected error for 0 threads")
	}
	if _, err := New(cl.Computes[0].NIC, nil, 1, Smart()); err == nil {
		t.Fatal("expected error for no blades")
	}
}

func TestTotalStatsAggregates(t *testing.T) {
	cl, rt := testRig(t, 2, 1, Baseline(PerThreadDoorbell))
	addr := cl.Memories[0].Mem.Alloc(8)
	for _, th := range rt.Threads() {
		th.Spawn("w", func(c *Ctx) {
			c.BeginOp()
			c.ReadSync(addr, make([]byte, 8))
			c.EndOp()
		})
	}
	cl.Eng.Run(sim.Second)
	s := rt.TotalStats()
	if s.Ops != 2 || s.WRs != 2 {
		t.Fatalf("TotalStats = %+v", s)
	}
}
