package verbs

import (
	"math/rand"
	"testing"

	"repro/internal/rnic"
	"repro/internal/sim"
)

// testInjector adapts a function to rnic.Injector for targeted fault
// scenarios without pulling in the fault package's plan machinery.
type testInjector func(kind rnic.OpKind, now sim.Time, rng *rand.Rand) rnic.Verdict

func (f testInjector) Decide(kind rnic.OpKind, now sim.Time, rng *rand.Rand) rnic.Verdict {
	return f(kind, now, rng)
}

// failKind fails every op of the given kind with a remote-access NAK.
func failKind(k rnic.OpKind) testInjector {
	return func(kind rnic.OpKind, now sim.Time, rng *rand.Rand) rnic.Verdict {
		if kind == k {
			return rnic.Verdict{Action: rnic.ActFail, Status: rnic.StatusRemoteAccessErr}
		}
		return rnic.Verdict{}
	}
}

func TestErrorStatusPropagatesNoSideEffect(t *testing.T) {
	r := newRig(20)
	defer r.eng.Stop()
	r.ctx.NIC().SetFault(failKind(rnic.OpWrite))
	addr := r.mem.Alloc(8)
	r.mem.Store8(addr.Offset, 7)
	r.eng.Go("client", func(p *sim.Proc) {
		cq := r.ctx.CreateCQ()
		qp := r.ctx.CreateQP(cq, r.tgt)
		wr := Write(addr, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		qp.PostSend(p, wr)
		ces := cq.WaitN(p, 1)
		if ces[0].Status != rnic.StatusRemoteAccessErr || ces[0].WR != wr {
			t.Errorf("CQE = {%v %v}, want the failed WR with remote-access-error", ces[0].WR, ces[0].Status)
		}
		if wr.Status != rnic.StatusRemoteAccessErr {
			t.Errorf("WR status = %v", wr.Status)
		}
		if got := r.mem.Load8(addr.Offset); got != 7 {
			t.Errorf("NAKed WRITE mutated memory: %d", got)
		}
	})
	r.eng.Run(0)
	if c := r.ctx.NIC().Snapshot(); c.Injected != 1 || c.Errors != 1 || c.Completed != 0 {
		t.Errorf("counters = injected %d, errors %d, completed %d; want 1, 1, 0",
			c.Injected, c.Errors, c.Completed)
	}
}

func TestFailedCASDidNotSwap(t *testing.T) {
	r := newRig(21)
	defer r.eng.Stop()
	r.ctx.NIC().SetFault(failKind(rnic.OpCAS))
	addr := r.mem.Alloc(8)
	r.mem.Store8(addr.Offset, 7)
	r.eng.Go("client", func(p *sim.Proc) {
		cq := r.ctx.CreateCQ()
		qp := r.ctx.CreateQP(cq, r.tgt)
		wr := CAS(addr, 7, 99)
		qp.PostSend(p, wr)
		cq.WaitN(p, 1)
		// The compare value would have matched, but the op never
		// executed: Succeeded must not read the stale Result as a swap.
		if wr.Succeeded() {
			t.Error("NAKed CAS reported success")
		}
		if r.mem.Load8(addr.Offset) != 7 {
			t.Error("NAKed CAS mutated memory")
		}
	})
	r.eng.Run(0)
}

func TestMixedBatchThroughWaitN(t *testing.T) {
	r := newRig(22)
	defer r.eng.Stop()
	r.ctx.NIC().SetFault(failKind(rnic.OpWrite))
	addr := r.mem.Alloc(8)
	r.eng.Go("client", func(p *sim.Proc) {
		cq := r.ctx.CreateCQ()
		qp := r.ctx.CreateQP(cq, r.tgt)
		wrs := []*WR{
			Read(addr, make([]byte, 8)),
			Write(addr, make([]byte, 8)),
			Read(addr, make([]byte, 8)),
			Write(addr, make([]byte, 8)),
		}
		qp.PostSend(p, wrs...)
		ces := cq.WaitN(p, 4)
		ok, bad := 0, 0
		for _, ce := range ces {
			if ce.Status == rnic.StatusSuccess {
				ok++
			} else {
				bad++
			}
		}
		if ok != 2 || bad != 2 {
			t.Errorf("mixed batch: %d success, %d errors; want 2 and 2", ok, bad)
		}
	})
	r.eng.Run(0)
}

func TestAllErrorBatchWakesWaitN(t *testing.T) {
	// Regression: error completions must route through the same
	// buffer-and-kick path as successes. Before the fix a consumer
	// parked in WaitN slept forever when every op in its batch failed
	// before any success was delivered.
	r := newRig(23)
	defer r.eng.Stop()
	r.ctx.NIC().SetFault(failKind(rnic.OpRead))
	addr := r.mem.Alloc(8)
	woke := false
	r.eng.Go("client", func(p *sim.Proc) {
		cq := r.ctx.CreateCQ()
		qp := r.ctx.CreateQP(cq, r.tgt)
		qp.PostSend(p,
			Read(addr, make([]byte, 8)),
			Read(addr, make([]byte, 8)),
			Read(addr, make([]byte, 8)))
		ces := cq.WaitN(p, 3)
		for _, ce := range ces {
			if ce.Status != rnic.StatusRemoteAccessErr {
				t.Errorf("CQE status = %v", ce.Status)
			}
		}
		woke = true
	})
	r.eng.Run(0)
	if !woke {
		t.Fatal("WaitN parked forever on an all-error batch")
	}
}

func TestExpireAndStaleCompletions(t *testing.T) {
	r := newRig(25)
	defer r.eng.Stop()
	addr := r.mem.Alloc(8)
	var cqRef *CQ
	r.eng.Go("client", func(p *sim.Proc) {
		cq := r.ctx.CreateCQ()
		cqRef = cq
		qp := r.ctx.CreateQP(cq, r.tgt)
		wr := Read(addr, make([]byte, 8))
		qp.PostSend(p, wr)
		att := wr.Attempt()

		// The watchdog fires before the card completes: the consumer
		// sees a timeout CQE for that attempt.
		cq.Expire(wr, att)
		ces := cq.WaitN(p, 1)
		if ces[0].Status != rnic.StatusTimeout {
			t.Errorf("expired CQE status = %v, want timeout", ces[0].Status)
		}

		// Repost: a fresh attempt with a clean status. The card's late
		// completion for attempt 1 (still in flight) must not complete
		// attempt 2.
		qp.PostSend(p, wr)
		if wr.Attempt() != att+1 {
			t.Fatalf("repost attempt = %d, want %d", wr.Attempt(), att+1)
		}
		ces = cq.WaitN(p, 1)
		if ces[0].Status != rnic.StatusSuccess {
			t.Errorf("reposted CQE status = %v, want success", ces[0].Status)
		}

		// A stale watchdog armed for attempt 1 firing now is a no-op:
		// it must not invent a timeout for the completed attempt 2.
		cq.Expire(wr, att)
		if wr.Status != rnic.StatusSuccess {
			t.Errorf("stale Expire rewrote status to %v", wr.Status)
		}

		// Double Expire of the same attempt delivers nothing new.
		if got := cq.Len(); got != 0 {
			t.Errorf("CQ holds %d surprise entries", got)
		}
	})
	r.eng.Run(0)
	// Two stale events: the card's attempt-1 completion and the late
	// attempt-1 Expire. Exactly two CQEs were delivered.
	if cqRef.Stale != 2 {
		t.Errorf("Stale = %d, want 2", cqRef.Stale)
	}
	if cqRef.Delivered != 2 {
		t.Errorf("Delivered = %d, want 2", cqRef.Delivered)
	}
}

// TestResetKeepsAttemptMonotone pins what makes WR reuse safe: Reset
// keeps the attempt counter and completion latch, so the card's late
// CQE for an expired attempt, and a watchdog armed for it, are stale
// for the reset WR — before and after it is reposted.
func TestResetKeepsAttemptMonotone(t *testing.T) {
	r := newRig(27)
	defer r.eng.Stop()
	addr := r.mem.Alloc(8)
	r.mem.Store8(addr.Offset, 5)
	var cqRef *CQ
	r.eng.Go("client", func(p *sim.Proc) {
		cq := r.ctx.CreateCQ()
		cqRef = cq
		qp := r.ctx.CreateQP(cq, r.tgt)
		wr := Read(addr, make([]byte, 8))
		wr.ID = 99
		qp.PostSend(p, wr)
		att := wr.Attempt()
		cq.Expire(wr, att) // the watchdog beats the card
		cq.Recycle(cq.WaitN(p, 1))

		wr.Reset()
		if wr.Attempt() != att {
			t.Fatalf("Reset moved the attempt counter %d -> %d", att, wr.Attempt())
		}
		if wr.Kind != 0 || wr.Local != nil || wr.ID != 0 || wr.Status != rnic.StatusSuccess {
			t.Errorf("Reset left exported fields set: %+v", wr)
		}
		// Attempt att's card completion lands while the reset WR sits
		// unposted, then its watchdog fires again: neither is delivered.
		p.Sleep(100 * sim.Microsecond)
		cq.Expire(wr, att)
		if n := cq.Len(); n != 0 {
			t.Fatalf("reset WR received %d completions of an earlier attempt", n)
		}

		wr.Kind, wr.Remote, wr.Local = rnic.OpRead, addr, make([]byte, 8)
		qp.PostSend(p, wr)
		if wr.Attempt() != att+1 {
			t.Fatalf("repost after Reset: attempt %d, want %d", wr.Attempt(), att+1)
		}
		ces := cq.WaitN(p, 1)
		if ces[0].Status != rnic.StatusSuccess || r.mem.Load8(addr.Offset) != 5 || wr.Local[0] != 5 {
			t.Errorf("reposted READ: status %v, data %v", ces[0].Status, wr.Local)
		}
		cq.Expire(wr, att)
		if cq.Len() != 0 || wr.Status != rnic.StatusSuccess {
			t.Errorf("stale Expire after repost delivered or rewrote status %v", wr.Status)
		}
	})
	r.eng.Run(0)
	// Stale: the card's attempt-1 CQE and the two attempt-1 Expires.
	// Delivered: the first timeout and the reposted READ.
	if cqRef.Stale != 3 || cqRef.Delivered != 2 {
		t.Errorf("Stale = %d, Delivered = %d; want 3 and 2", cqRef.Stale, cqRef.Delivered)
	}
}

func TestErrorCompletionRoutesToOnComplete(t *testing.T) {
	r := newRig(26)
	defer r.eng.Stop()
	r.ctx.NIC().SetFault(failKind(rnic.OpRead))
	addr := r.mem.Alloc(8)
	var got rnic.Status
	called := 0
	r.eng.Go("client", func(p *sim.Proc) {
		cq := r.ctx.CreateCQ()
		qp := r.ctx.CreateQP(cq, r.tgt)
		wr := Read(addr, make([]byte, 8))
		wr.OnComplete = func(w *WR) { called++; got = w.Status }
		qp.PostSend(p, wr)
	})
	r.eng.Run(0)
	if called != 1 || got != rnic.StatusRemoteAccessErr {
		t.Fatalf("OnComplete called %d times with status %v", called, got)
	}
}
