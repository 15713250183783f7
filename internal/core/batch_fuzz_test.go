package core

import (
	"encoding/binary"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// FuzzDoorbellCoalescing differences randomized coalescing
// configurations against the unbatched oracle: for any (batch size,
// flush deadline, WR kind mix, injected-fault spec) drawn from the
// constrained space below, the coalesced run must produce the same
// completion multiset — (kind, status, success-guarded result), final
// memory, and fault-ladder counters — and must never submit a WR after
// its coalescing deadline (CoalesceStats.Overruns == 0).
//
// The parameter space is constrained so that cross-mode equality is a
// theorem, not a coincidence (see batch_diff_test.go for the
// shift-invariance argument this extends):
//
//   - Fault windows span the whole horizon, so window membership is
//     time-invariant and unaffected by coalescing's submission delays.
//   - The injector and the card's cost model draw from the engine rng
//     at submit time, so equality needs the global submission sequence
//     (not submission times) preserved. Delay factors (<= 8) and drop
//     counts (<= 2 < MaxRetransmits) keep perturbed ops below the
//     watchdog — they complete as (delayed) successes and consume no
//     extra draws — while the 60 us watchdog exceeds the maximum flush
//     deadline (50 us), so every first-attempt submission lands before
//     any timeout fires. At most one op per round can NAK (see
//     fuzzPlan and the one-CAS cap in the workload) and timeouts fire
//     at exactly submit+60 us, so the failed list Sync retries from is
//     in post order in every mode.
const (
	fuzzSlots   = 8
	fuzzSpacing = 300 * sim.Microsecond
	fuzzHorizon = 10 * sim.Millisecond
)

// runCoalesceFuzz runs the fuzz workload — rounds of fuzzSlots WRs
// whose kinds come from kindMix, posted at fixed absolute times, odd
// rounds sleeping past every flush deadline before Sync so the
// deadline timer (not Sync) must flush — and returns the observable
// record plus the thread's coalescing counters.
func runCoalesceFuzz(t *testing.T, b verbs.Batching, plan *fault.Plan, rounds int, kindMix uint16) (diffRecord, CoalesceStats) {
	t.Helper()
	cl := cluster.New(cluster.Config{
		ComputeBlades: 1,
		MemoryBlades:  1,
		BladeCapacity: 1 << 20,
		Seed:          321,
	})
	defer cl.Stop()
	opts := Baseline(PerThreadDoorbell)
	opts.WRTimeout = 60 * sim.Microsecond
	opts.MaxWRRetries = 2
	opts.Batching = b
	rt, err := New(cl.Computes[0].NIC, cl.Targets(), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if plan != nil {
		cl.Computes[0].NIC.SetFault(plan)
	}

	mem := cl.Memories[0].Mem
	region := mem.Alloc(uint64(rounds*fuzzSlots) * 8)
	for i := uint64(0); i < uint64(rounds*fuzzSlots); i++ {
		mem.Store8(region.Offset+i*8, i)
	}

	var rec diffRecord
	done := false
	rt.Thread(0).Spawn("fuzz", func(c *Ctx) {
		for round := 0; round < rounds; round++ {
			at := sim.Time(round) * fuzzSpacing
			if at > c.Now() {
				c.Proc().Sleep(at - c.Now())
			}
			wrs := make([]*verbs.WR, fuzzSlots)
			casUsed := false
			for slot := 0; slot < fuzzSlots; slot++ {
				i := uint64(round*fuzzSlots + slot)
				addr := region.Add(i * 8)
				kind := (kindMix >> (2 * slot)) & 3
				if kind == 2 {
					// At most one CAS per round: NAK return latency
					// carries the per-op MTT-miss jitter (~300 ns),
					// which exceeds the spacing of chained submissions
					// but not the per-WR stagger — two NAKs in one
					// round could complete in mode-dependent order,
					// reordering Sync's retries and with them the rng
					// draw stream. One NAK plus exact-time watchdog
					// timeouts keeps the failed list in post order in
					// every mode.
					if casUsed {
						kind = 3
					}
					casUsed = true
				}
				switch kind {
				case 0:
					wrs[slot] = c.Read(addr, make([]byte, 8))
				case 1:
					src := make([]byte, 8)
					binary.LittleEndian.PutUint64(src, 1000+i)
					wrs[slot] = c.Write(addr, src)
				case 2:
					cmp := i
					if round%2 == 1 {
						cmp = i + 1
					}
					wrs[slot] = c.CAS(addr, cmp, 7777+i)
				default:
					wrs[slot] = c.FAA(addr, 3)
				}
			}
			c.PostSend()
			if round%2 == 1 {
				// Sleep past the largest possible flush deadline: the
				// buffered tail must be submitted by the deadline
				// timer, and completions (watchdog timeouts included)
				// accumulate before Sync drains them.
				if wake := at + 120*sim.Microsecond; wake > c.Now() {
					c.Proc().Sleep(wake - c.Now())
				}
			}
			c.Sync()
			for _, wr := range wrs {
				o := diffOutcome{kind: wr.Kind.String(), status: wr.Status.String()}
				if wr.Status == rnic.StatusSuccess {
					switch wr.Kind {
					case rnic.OpRead:
						o.data = binary.LittleEndian.Uint64(wr.Local)
					case rnic.OpCAS, rnic.OpFAA:
						o.result = wr.Result
					}
				}
				rec.outcomes = append(rec.outcomes, o)
			}
		}
		done = true
	})
	cl.Eng.Run(4 * sim.Millisecond)
	if !done {
		t.Fatalf("batching=%v: workload never finished", b)
	}

	rec.mem = make([]byte, rounds*fuzzSlots*8)
	mem.ReadInto(region.Offset, rec.mem)
	th := rt.Thread(0)
	rec.stale = th.cq.Stale
	rec.retries = th.Stats.FaultRetries
	rec.timeouts = th.Stats.FaultTimeouts
	rec.abandoned = th.Stats.FaultAbandoned
	return rec, th.CoalesceStats()
}

// fuzzPlan builds a whole-horizon fault plan from the constrained fuzz
// parameters. action selects at most one READ/WRITE perturbation;
// atomicFail adds the CAS/FAA NAK rule. Returns nil when no rule
// applies (the fault-free case).
func fuzzPlan(t *testing.T, action, prob, extra uint8, atomicFail bool) *fault.Plan {
	t.Helper()
	var rules []fault.Rule
	p := float64(int(prob)%4+1) / 4 // quantized: 0.25, 0.5, 0.75, 1
	switch action % 4 {
	case 1:
		rules = append(rules, fault.Rule{
			Start: 0, End: fuzzHorizon,
			Kinds: fault.MaskRead | fault.MaskWrite, Prob: p,
			Action: rnic.ActDelay, Factor: float64(2 + int(extra)%7),
		})
	case 2:
		rules = append(rules, fault.Rule{
			Start: 0, End: fuzzHorizon,
			Kinds: fault.MaskRead | fault.MaskWrite, Prob: p,
			Action: rnic.ActDrop, Drops: 1 + int(extra)%2,
		})
	case 3:
		rules = append(rules, fault.Rule{
			Start: 0, End: fuzzHorizon,
			Kinds: fault.MaskRead | fault.MaskWrite, Prob: p,
			Action: rnic.ActBlackhole,
		})
	}
	if atomicFail {
		// CAS only, not MaskAtomic: together with the one-CAS-per-round
		// cap in the workload this guarantees at most one NAK per
		// round, so the failed list's order cannot depend on NAK
		// return-latency jitter (MTT misses) that differs between the
		// staggered per-WR path and a simultaneous chained flush.
		rules = append(rules, fault.Rule{
			Start: 0, End: fuzzHorizon,
			Kinds: fault.MaskCAS, Prob: 0.7,
			Action: rnic.ActFail, Status: rnic.StatusRemoteAccessErr,
		})
	}
	if len(rules) == 0 {
		return nil
	}
	plan, err := fault.NewPlan(rules)
	if err != nil {
		t.Fatalf("fuzz-generated plan invalid: %v", err)
	}
	return plan
}

func FuzzDoorbellCoalescing(f *testing.F) {
	// batch, deadline, rounds, action, prob, extra, kindMix, atomicFail, postlist
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0), false, false)
	f.Add(uint8(31), uint8(4), uint8(1), uint8(0), uint8(0), uint8(0), uint16(0x1e1e), false, true)
	f.Add(uint8(3), uint8(19), uint8(5), uint8(3), uint8(3), uint8(0), uint16(0x9c3a), true, true)
	f.Add(uint8(7), uint8(49), uint8(3), uint8(1), uint8(2), uint8(6), uint16(0xb7b7), true, false)
	f.Add(uint8(15), uint8(24), uint8(4), uint8(2), uint8(1), uint8(1), uint16(0x4d2d), false, true)

	f.Fuzz(func(t *testing.T, batch, deadline, rounds, action, prob, extra uint8, kindMix uint16, atomicFail, postlist bool) {
		b := verbs.Batching{
			Postlist:      postlist,
			Coalesce:      true,
			CoalesceBatch: 1 + int(batch)%32,
			FlushDeadline: sim.Time(1+int(deadline)%50) * sim.Microsecond,
		}
		nr := 1 + int(rounds)%6
		plan := fuzzPlan(t, action, prob, extra, atomicFail)

		oracle, _ := runCoalesceFuzz(t, verbs.Batching{}, plan, nr, kindMix)
		got, st := runCoalesceFuzz(t, b, plan, nr, kindMix)
		assertDiffEqual(t, b.String(), fuzzSlots, oracle, got)

		// The deadline contract: every flush happens no later than
		// firstAt + FlushDeadline in sim time, so no WR is ever
		// submitted after its coalescing deadline.
		if st.Overruns != 0 {
			t.Errorf("%v: %d flushes overran the deadline", b, st.Overruns)
		}
		// Every posting — initial attempts and Sync retries alike —
		// must have gone through the buffer.
		if want := uint64(nr*fuzzSlots) + got.retries; st.Coalesced != want {
			t.Errorf("%v: coalesced %d WRs, want %d (%d posts + %d retries)",
				b, st.Coalesced, want, nr*fuzzSlots, got.retries)
		}
		// Liveness, not just safety: when the buffer can never fill
		// (batch > round size) and an odd round sleeps past the
		// deadline before Sync, the deadline timer must have fired.
		if b.CoalesceBatch > fuzzSlots && nr >= 2 && st.FlushDeadline == 0 {
			t.Errorf("%v: no deadline flush over %d rounds with batch %d > %d posts/round",
				b, nr, b.CoalesceBatch, fuzzSlots)
		}
	})
}
