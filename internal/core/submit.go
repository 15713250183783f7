package core

import (
	"repro/internal/sim"
	"repro/internal/verbs"
)

// sender is the one submission loop (DESIGN.md §14, "Staged
// submission"): post's credit-gated walk over a batch, with the
// coalescer's flush-by-full inline, and every coalescer flush. A
// process posting through it is blocked for the whole loop, so after
// its first park — on a credit, the QP lock or the doorbell — the rest
// runs as engine-context stages, each firing where the process's own
// wake would have and counting that park and wake, and the process is
// switched into once, after its last WR is launched — or, for a Sync,
// not until its completions wake it. Each Ctx carries
// one sender for its coroutine and each coalescer one for its flusher,
// with the stages bound once, so a post allocates nothing.
type sender struct {
	t *Thread
	c *Ctx // the posting coroutine; nil for the flusher, which only flushes
	p *sim.Proc

	wrs       []*verbs.WR // the batch post walks
	next      int         // wrs[next:] have not taken their credit yet
	chain     bool        // same-QP WRs with a free credit ride one chain
	wait      bool        // a Sync: the coroutine then waits on its pending WRs
	syncFlush bool        // a Sync's coalescer flush is still to come

	flush   []*verbs.WR // a detached coalescing buffer being submitted
	flushed int         // flush[:flushed] have been handed to submit

	qp   *verbs.QP
	run  []*verbs.WR // the same-QP run submit is posting
	sent int         // run[:sent] are posted
	step int

	carry func() // carryOn, bound once: the credit grant's stage and PostListStage's continuation
}

// The loop's steps. Each of acquire and post may park the process;
// the next step then runs when it would have woken.
const (
	sendNext   = iota // start the flush's next run, else take the batch's next credit
	sendRoute         // the leader holds its credit: extend its chain, then buffer or post it
	sendPost          // post the run's next chain
	sendPosted        // that chain is launched
)

// bind ties s to its thread, coroutine and process, and binds its
// stages.
func (s *sender) bind(t *Thread, c *Ctx, p *sim.Proc) {
	s.t, s.c, s.p = t, c, p
	s.carry = s.carryOn
}

// post sends wrs through the throttler to the card, shared by
// Ctx.PostSend, Sync and Sync's transparent retry. Each WR first
// takes the pending count and a throttling credit (possibly stalling).
// With chain set (postlist batching without coalescing) consecutive
// same-QP WRs submit as one linked chain, which extends only while a
// credit is immediately available — so the coroutine stalls at exactly
// the same points, in the same credit-acquisition order, as one WR at a
// time, and a batch larger than the free credit balance slides through
// as several chains. Under doorbell coalescing each WR is buffered
// instead; the coalescer submits it at flush time. The coroutine is
// blocked until the last WR is launched or buffered.
//
// With wait set (a Sync) the loop goes on to flush the thread's
// coalescing buffer, and the coroutine then waits until every WR it
// has pending completes. A loop that finishes in a stage leaves it
// parked on those completions (sim.Proc.Await) rather than switching
// into it only for it to park again, so a dependent round trip costs
// one switch: the wake of its last completion.
func (s *sender) post(wrs []*verbs.WR, chain, wait bool) {
	s.wrs, s.next, s.chain = wrs, 0, chain
	s.wait, s.syncFlush = wait, wait && s.t.coal != nil
	if !s.advance() {
		s.p.Block()
	} else if s.awaiting() {
		s.p.Suspend()
	}
}

// awaiting ends the loop: it reports whether the coroutine, in a Sync,
// has WRs pending to wait for, and if so marks it syncing, so that the
// last completion wakes it.
func (s *sender) awaiting() bool {
	if !s.wait {
		return false
	}
	s.wait = false
	if s.c.pending == 0 {
		return false
	}
	s.c.syncing = true
	return true
}

// flushBuffer submits the thread's coalescing buffer, blocking the
// process until its last WR is launched.
func (s *sender) flushBuffer(reason int) {
	if s.detach(reason) && !s.advance() {
		s.p.Block()
	}
}

// detach takes the coalescing buffer for a flush; see coalescer.detach.
func (s *sender) detach(reason int) bool {
	s.flush, s.flushed = s.t.coal.detach(reason), 0
	return s.flush != nil
}

// advance runs the loop until a step parks the process, and reports
// whether the loop finished.
func (s *sender) advance() bool {
	t := s.t
	for {
		switch s.step {
		case sendNext:
			if s.flush != nil {
				if s.flushed < len(s.flush) {
					s.flushRun()
					s.step = sendPost
					continue
				}
				t.coal.recycle(s.flush)
				s.flush = nil
			}
			if s.next == len(s.wrs) {
				s.wrs, s.next = nil, 0
				if s.syncFlush {
					s.syncFlush = false
					if s.detach(flushSync) {
						continue
					}
				}
				return true
			}
			s.qp = t.qpFor(s.wrs[s.next])
			s.step = sendRoute
			if !s.acquire() {
				return false
			}
		case sendRoute:
			i, j := s.next, s.next+1
			for s.chain && j < len(s.wrs) && t.qpFor(s.wrs[j]) == s.qp &&
				(t.credits == nil || (t.credits.Waiters() == 0 && t.credits.Available() >= 1)) {
				s.acquire() // a free credit: never parks
				j++
			}
			s.next = j
			if t.coal != nil {
				s.step = sendNext
				if t.coal.enqueue(s.wrs[i]) {
					s.detach(flushFull)
				}
				continue
			}
			s.run, s.sent = s.wrs[i:j], 0
			s.step = sendPost
		case sendPost:
			s.step = sendPosted
			if !t.submit(s) {
				return false
			}
		default: // sendPosted
			if s.sent < len(s.run) {
				s.step = sendPost
				continue
			}
			t.launched(s.qp, s.run)
			s.run = nil
			s.step = sendNext
		}
	}
}

// acquire runs one WR's pre-submission bookkeeping: the pending count,
// then a throttling credit, which may park the process.
func (s *sender) acquire() bool {
	s.c.pending++
	return s.t.credits == nil || s.t.credits.AcquireStage(s.p, 1, s.carry)
}

// flushRun sets up the next same-QP run of the flush in progress.
func (s *sender) flushRun() {
	i := s.flushed
	s.qp = s.t.qpFor(s.flush[i])
	j := i + 1
	for j < len(s.flush) && s.t.qpFor(s.flush[j]) == s.qp {
		j++
	}
	s.run, s.sent, s.flushed = s.flush[i:j], 0, j
}

// carryOn continues the loop from a stage: the credit grant's, or the
// post's once its last WR is launched. Once the loop finishes it
// switches into the process inside the current event, unless the
// process is in a Sync with WRs pending: then it leaves it parked on
// their completions, the last of which wakes it.
func (s *sender) carryOn() {
	if !s.advance() {
		return
	}
	if s.awaiting() {
		s.p.Await()
	} else {
		s.p.Resume()
	}
}

// submit is the one place the framework hands work requests to a QP
// (DESIGN.md §16): a step of s's loop that posts the next chain of its
// same-QP run — the whole run under postlist batching, its next WR
// otherwise — and reports whether the post finished without parking.
// The loop calls launched once the whole run is posted, which is why
// the coalescer submits at flush time rather than post time.
func (t *Thread) submit(s *sender) bool {
	wrs := s.run[s.sent:]
	if !t.rt.opts.Batching.Postlist {
		wrs = wrs[:1]
	}
	s.sent += len(wrs)
	return s.qp.PostListStage(s.p, wrs, s.carry)
}

// launched enters each WR of a posted run in the outstanding-WR gauge
// and, when configured, arms its watchdog — against the attempt the
// post just launched.
func (t *Thread) launched(qp *verbs.QP, wrs []*verbs.WR) {
	for _, wr := range wrs {
		t.noteOWR(1)
		if d := t.rt.opts.WRTimeout; d > 0 {
			cq, attempt := qp.CQ(), wr.Attempt()
			t.rt.eng.Schedule(d, func() { cq.Expire(wr, attempt) })
		}
	}
}
