package core

import (
	"repro/internal/sim"
	"repro/internal/verbs"
)

// flush reasons, for the batch/* telemetry counters.
const (
	flushFull = iota
	flushDeadline
	flushSync
)

// coalescer is the per-thread doorbell coalescing buffer (DESIGN.md
// §16): the submission loop enqueues instead of submitting (the posting
// context's bookkeeping has already run), and the buffer is flushed —
// WRs submitted to the card, in enqueue order — when it fills to
// CoalesceBatch, when the oldest entry's FlushDeadline
// expires (an engine timer wakes the thread's flusher process), or
// explicitly at Sync, which is what keeps the happens-before contract:
// a coroutine entering Sync has everything it posted submitted before
// it parks. Every flush runs in the flushing process's sender (see
// sender), as one more stretch of its submission loop.
//
// All state is engine-context-only, like the rest of the thread: the
// buffer is touched from posting coroutines, the flusher process, and
// timer callbacks, which the engine serializes by construction.
type coalescer struct {
	t       *Thread
	buf     []*verbs.WR
	spare   []*verbs.WR // recycled buffer, so steady-state flushing does not allocate
	firstAt sim.Time    // enqueue time of the oldest buffered entry
	gen     uint64      // bumped per flush; invalidates stale deadline timers
	due     bool
	idle    bool // the flusher is parked in run's idle loop, not in a flush
	flusher *sim.Proc
	send    sender // the flusher's submission loop

	// CoalesceStats counters (harvested by Collect when batching is on).
	flushes   [3]uint64 // by reason
	coalesced uint64    // WRs that went through the buffer
	overruns  uint64    // flushes later than firstAt+FlushDeadline
}

// CoalesceStats is the coalescer's counter snapshot.
type CoalesceStats struct {
	FlushFull     uint64 // flushes triggered by a full buffer
	FlushDeadline uint64 // flushes triggered by the deadline timer
	FlushSync     uint64 // explicit flushes at Sync
	Coalesced     uint64 // WRs submitted through the buffer
	Overruns      uint64 // flushes that happened after the deadline
}

func newCoalescer(t *Thread) *coalescer { return &coalescer{t: t} }

// CoalesceStats returns the thread's coalescing counters (zero when
// coalescing is off).
func (t *Thread) CoalesceStats() CoalesceStats {
	co := t.coal
	if co == nil {
		return CoalesceStats{}
	}
	return CoalesceStats{
		FlushFull:     co.flushes[flushFull],
		FlushDeadline: co.flushes[flushDeadline],
		FlushSync:     co.flushes[flushSync],
		Coalesced:     co.coalesced,
		Overruns:      co.overruns,
	}
}

// Buffered returns how many WRs the coalescer currently holds.
func (co *coalescer) Buffered() int { return len(co.buf) }

// enqueue buffers one posting, arming the deadline timer on the first
// entry, and reports whether the buffer is now full: the caller's
// sender then flushes it inline (flush-by-full).
func (co *coalescer) enqueue(wr *verbs.WR) (full bool) {
	co.buf = append(co.buf, wr)
	if len(co.buf) == 1 {
		co.firstAt = co.t.rt.eng.Now()
		co.armTimer()
	}
	return len(co.buf) >= co.t.rt.opts.Batching.CoalesceBatch
}

// armTimer schedules the flush-by-deadline timer for the current
// buffer generation. The callback runs in engine context — it cannot
// submit (submission sleeps on locks) — so it marks the buffer due and
// wakes the flusher process if it is idle. A flusher still inside an
// earlier flush is not woken: it is blocked in that flush's stages,
// and finds due set when the flush returns. A flush for any
// other reason bumps gen first, making the pending timer a no-op.
func (co *coalescer) armTimer() {
	d := co.t.rt.opts.Batching.FlushDeadline
	if d <= 0 || co.flusher == nil {
		return
	}
	gen := co.gen
	co.t.rt.eng.Schedule(d, func() {
		if co.gen != gen || len(co.buf) == 0 || co.due {
			return
		}
		co.due = true
		if co.idle {
			co.flusher.Wake()
		}
	})
}

// run is the flusher process: parked until a deadline timer marks the
// buffer due, then flushes through its own sender. Unwound by
// Engine.Stop while parked; checks the runtime's stop flag like the
// other housekeeping processes so a stopped runtime submits nothing
// more.
func (co *coalescer) run(p *sim.Proc) {
	for {
		for !co.due {
			co.idle = true
			p.Suspend()
			co.idle = false
		}
		if co.t.rt.stopped {
			return
		}
		co.due = false
		co.send.flushBuffer(flushDeadline)
	}
}

// detach takes the buffer for a flush and counts the flush, or returns
// nil if the buffer is empty. Detaching first makes flushes
// reentrancy-safe: a flush's posts park on the QP lock and doorbell,
// and other coroutines of this thread may enqueue — or even flush the
// refilled buffer — meanwhile. The flushing sender submits the
// detached WRs in enqueue order, one same-QP run at a time, and hands
// them back to recycle.
func (co *coalescer) detach(reason int) []*verbs.WR {
	if len(co.buf) == 0 {
		return nil
	}
	t := co.t
	wrs := co.buf
	co.buf = co.spare[:0]
	co.spare = nil
	co.gen++
	co.due = false
	co.flushes[reason]++
	co.coalesced += uint64(len(wrs))
	if d := t.rt.opts.Batching.FlushDeadline; d > 0 && t.rt.eng.Now() > co.firstAt+d {
		co.overruns++
	}
	return wrs
}

// recycle keeps a flushed buffer as the spare for a later detach.
func (co *coalescer) recycle(wrs []*verbs.WR) {
	clear(wrs)
	co.spare = wrs[:0]
}
