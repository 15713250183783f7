package core

import (
	"fmt"

	"repro/internal/blade"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// Ctx is the per-coroutine handle exposing SMART's programming
// interface (§5.1): read/write/cas/faa buffer work requests,
// post_send posts them through the throttler, sync posts whatever is
// still buffered and suspends the coroutine until everything posted
// completes, and backoff_cas_sync adds conflict avoidance. A round trip
// is the buffering calls then Sync; PostSend alone lets WRs fly while
// the coroutine goes on. BeginOp/EndOp bracket one application
// operation for the coroutine-depth throttle and the statistics, and
// scope the op's memory: the WRs and Buf buffers an op takes are the
// Ctx's to reuse once EndOp has run, and a *Sync helper's WR once the
// helper returns (DESIGN.md §14, "Op-path allocation").
type Ctx struct {
	T      *Thread
	proc   *sim.Proc
	onDone func(*verbs.WR) // c.onComplete, bound once by Thread.Spawn
	send   sender          // the coroutine's submission loop, bound by Thread.Spawn

	slept, regained func() // the backoff's stages, backoffWoke and proc.Resume, bound by Thread.Spawn

	buf     []*verbs.WR
	pending int
	syncing bool
	failed  []*verbs.WR // error completions awaiting Sync's retry/abandon decision

	inOp        bool
	opStart     sim.Time // BeginOp timestamp, for the latency histogram
	opRetries   int
	casAttempts int // consecutive failed CAS, drives the backoff exponent

	// Op-scoped memory, reused across this coroutine's ops.
	opWRs    []*verbs.WR // WRs taken since BeginOp
	freeWRs  []*verbs.WR // WRs earlier ops released
	arena    []byte      // Buf's backing store, rewound by EndOp
	arenaOff int
	timedOut bool // some completion since the last EndOp was a watchdog timeout
}

// arenaMin is the smallest arena Buf allocates; it grows by doubling
// to the largest op footprint the coroutine has seen.
const arenaMin = 1 << 10

// Proc returns the coroutine's simulated process, for callers that
// need to sleep or block directly.
func (c *Ctx) Proc() *sim.Proc { return c.proc }

// Now returns the current virtual time.
func (c *Ctx) Now() sim.Time { return c.proc.Now() }

// Read buffers a READ work request fetching len(buf) bytes from addr.
// Inside BeginOp…EndOp the returned WR belongs to the op: it is valid
// until EndOp, which recycles it. Outside an op it is the caller's.
func (c *Ctx) Read(addr blade.Addr, buf []byte) *verbs.WR {
	wr := c.newWR(rnic.OpRead, addr)
	wr.Local = buf
	return wr
}

// Write buffers a WRITE work request storing src at addr. The returned
// WR's lifetime is Read's.
func (c *Ctx) Write(addr blade.Addr, src []byte) *verbs.WR {
	wr := c.newWR(rnic.OpWrite, addr)
	wr.Local = src
	return wr
}

// CAS buffers an 8-byte compare-and-swap work request. The returned
// WR's lifetime is Read's.
func (c *Ctx) CAS(addr blade.Addr, compare, swap uint64) *verbs.WR {
	wr := c.newWR(rnic.OpCAS, addr)
	wr.Compare, wr.Swap = compare, swap
	return wr
}

// FAA buffers an 8-byte fetch-and-add work request. The returned WR's
// lifetime is Read's.
func (c *Ctx) FAA(addr blade.Addr, add uint64) *verbs.WR {
	wr := c.newWR(rnic.OpFAA, addr)
	wr.Add = add
	return wr
}

// newWR is core's one WR allocator: it returns a cleared WR of the
// given kind on remote, already buffered for the next PostSend and
// bound to this coroutine's onComplete — the only route by which a
// completion reaches a coroutine (Sync's retries repost the same WRs,
// so the binding survives them). Inside an op it takes a WR an earlier
// op released (verbs.WR.Reset keeps the attempt counter, so
// completions still in flight for the WR's past attempts stay stale)
// and records it for EndOp. Outside an op — the preload paths — it
// allocates.
func (c *Ctx) newWR(kind rnic.OpKind, remote blade.Addr) *verbs.WR {
	var wr *verbs.WR
	if n := len(c.freeWRs); c.inOp && n > 0 {
		wr = c.freeWRs[n-1]
		c.freeWRs = c.freeWRs[:n-1]
		wr.Reset()
	} else {
		wr = new(verbs.WR)
	}
	if c.inOp {
		c.opWRs = append(c.opWRs, wr)
	}
	wr.Kind, wr.Remote, wr.OnComplete = kind, remote, c.onDone
	c.buf = append(c.buf, wr)
	return wr
}

// Buf returns a zeroed n-byte buffer for a READ destination or WRITE
// source. Inside BeginOp…EndOp it is carved from the coroutine's arena
// and valid only until EndOp: a cache or result that outlives the op
// must copy out of it. Outside an op it is a plain make.
func (c *Ctx) Buf(n int) []byte {
	if !c.inOp {
		return make([]byte, n)
	}
	if c.arenaOff+n > len(c.arena) {
		// Earlier carvings keep the old chunk alive until they die.
		c.arena = make([]byte, max(2*len(c.arena), n, arenaMin))
		c.arenaOff = 0
	}
	b := c.arena[c.arenaOff : c.arenaOff+n : c.arenaOff+n]
	c.arenaOff += n
	clear(b)
	return b
}

// ReuseBuf returns b, zeroed as Buf returns a buffer, for another
// n-byte READ inside the same op, so a retry loop re-reads into the
// buffers its first round carved instead of carving new ones each
// round. It returns a fresh Buf(n) instead when b is not n bytes long
// (the loop's first round passes nil) or when the card may still
// write into b: a completion since the last EndOp timed out (a
// timed-out launch can execute late) or WRs are pending, buffered or
// awaiting retry — the rule EndOp applies to the whole arena.
func (c *Ctx) ReuseBuf(b []byte, n int) []byte {
	if len(b) != n || c.busy() {
		return c.Buf(n)
	}
	clear(b)
	return b
}

// PostSend posts every buffered work request. With work request
// throttling enabled this is Algorithm 1's SMARTPOSTSEND: each WR
// consumes a credit before reaching the card, and the coroutine stalls
// while the thread's credits are depleted (batches larger than C_max
// slide through as a window). Completions replenish credits and are
// routed back to this coroutine.
func (c *Ctx) PostSend() { c.post(false) }

// post posts every buffered work request and, with wait set, waits for
// them as Sync does (see sender.post).
func (c *Ctx) post(wait bool) {
	wrs := c.buf
	c.buf = nil
	t := c.T
	c.send.post(wrs, t.rt.opts.Batching.Postlist && t.coal == nil, wait)
	// Posted WRs are tracked by the card and, inside an op, by opWRs
	// until EndOp; the batch buffer must not keep them alive as well.
	clear(wrs)
	// Reclaim the batch buffer for the next Read/Write/CAS/FAA round:
	// only this coroutine appends to it, and the coroutine was blocked
	// in the post, so nothing else touched c.buf meanwhile.
	c.buf = wrs[:0]
}

// onComplete runs in engine context when one of this coroutine's WRs
// completes: it replenishes the thread's credits (SMARTPOLLCQ) and
// wakes the coroutine once a pending Sync is satisfied.
func (c *Ctx) onComplete(wr *verbs.WR) {
	t := c.T
	t.Stats.WRs++
	t.noteOWR(-1)
	if t.credits != nil {
		t.credits.Release(1)
	}
	c.pending--
	if wr.Status != rnic.StatusSuccess {
		// Park the failure; the coroutine decides at Sync whether to
		// repost or abandon. Completion still replenished the credit —
		// the card slot is free either way.
		c.failed = append(c.failed, wr)
		if wr.Status == rnic.StatusTimeout {
			t.Stats.FaultTimeouts++
			c.timedOut = true
		}
		if t.tel.Tracing() {
			t.tel.Emit(t.rt.eng.Now(), "wr-error",
				fmt.Sprintf("t%d %s %s", t.ID, wr.Kind, wr.Status))
		}
	}
	if c.syncing && c.pending == 0 {
		c.syncing = false
		c.proc.Wake()
	}
}

// Sync posts whatever is still buffered, as PostSend would, and
// suspends the coroutine until all posted work requests have
// completed. Work requests that completed with an error are
// transparently reposted for up to MaxWRRetries rounds; whatever still
// fails after the budget is abandoned (counted, statuses left on the
// WRs for the caller to inspect). Before waiting, each round flushes
// the thread's coalescing buffer: everything this thread posted is
// submitted before anyone parks, which is what keeps the buffer
// invisible to the happens-before contract (a deadline can only delay
// WRs nobody is waiting for yet). Calling Sync alone rather than
// PostSend then Sync saves a coroutine switch per round trip (see
// sender.post).
func (c *Ctx) Sync() {
	c.post(true)
	t := c.T
	for round := 0; len(c.failed) > 0; round++ {
		if round >= t.rt.opts.MaxWRRetries {
			t.Stats.FaultAbandoned += uint64(len(c.failed))
			c.failed = c.failed[:0]
			return
		}
		retry := c.failed
		c.failed = nil
		t.Stats.FaultRetries += uint64(len(retry))
		c.send.post(retry, false, true)
	}
}

// ReadSync is Read + Sync. The *Sync helpers hand their WR back as
// they return (see releaseHelper), so a retry chain inside one op
// reuses one WR instead of taking a new one per round.
func (c *Ctx) ReadSync(addr blade.Addr, buf []byte) {
	wr := c.Read(addr, buf)
	c.Sync()
	c.releaseHelper(wr)
}

// WriteSync is Write + Sync.
func (c *Ctx) WriteSync(addr blade.Addr, src []byte) {
	wr := c.Write(addr, src)
	c.Sync()
	c.releaseHelper(wr)
}

// releaseHelper ends the life of wr, the one WR a *Sync helper took,
// when the helper returns: the caller never saw it, so nothing can
// read it later. It applies EndOp's rule — inside an op and not busy —
// and only to the op's newest WR; otherwise wr stays in opWRs for
// EndOp to decide.
func (c *Ctx) releaseHelper(wr *verbs.WR) {
	n := len(c.opWRs)
	if !c.inOp || n == 0 || c.opWRs[n-1] != wr || c.busy() {
		return
	}
	c.opWRs[n-1] = nil
	c.opWRs = c.opWRs[:n-1]
	c.freeWRs = append(c.freeWRs, wr)
}

// busy reports whether the card may still write into the WRs or arena
// the coroutine has taken since its last EndOp: a completion timed out
// (a timed-out launch can execute late), or WRs are pending, buffered
// or awaiting retry. Such memory is never reused.
func (c *Ctx) busy() bool {
	return c.timedOut || c.pending > 0 || len(c.buf) > 0 || len(c.failed) > 0
}

// CASSync performs one CAS and waits for it, recording retry
// statistics but never delaying — the building block shared with
// BackoffCASSync.
func (c *Ctx) CASSync(addr blade.Addr, compare, swap uint64) (old uint64, swapped bool) {
	wr := c.CAS(addr, compare, swap)
	c.Sync()
	swapped = wr.Succeeded()
	old = wr.Result
	c.releaseHelper(wr)
	t := c.T
	t.Stats.CASTotal++
	if swapped {
		c.casAttempts = 0
		return old, true
	}
	t.winRetries++
	t.Stats.CASFailed++
	if c.inOp {
		c.opRetries++
	}
	if t.tel.Tracing() {
		t.tel.Emit(t.rt.eng.Now(), "cas-retry",
			fmt.Sprintf("t%d blade=%d off=%d attempt=%d", t.ID, addr.Blade, addr.Offset, c.casAttempts+1))
	}
	return old, false
}

// FAASync performs one FAA and waits for it. A request the fault
// model abandoned (retries exhausted) never executed remotely, so
// there is no fetched value to return; the zero value is explicit
// rather than read out of the dead request's payload.
func (c *Ctx) FAASync(addr blade.Addr, add uint64) (old uint64) {
	wr := c.FAA(addr, add)
	c.Sync()
	if wr.Status == rnic.StatusSuccess {
		old = wr.Result
	}
	c.releaseHelper(wr)
	return old
}

// BackoffCASSync is the conflict-avoidance CAS (§4.3): semantically
// cas + sync, but after an unsuccessful attempt the coroutine delays
// by the truncated randomized exponential backoff
//
//	t = min(t0 * 2^i, t_max) + Rand(t0)
//
// before returning, so the caller can refresh its expected value and
// retry. t_max is the thread's (static or dynamically adapted) limit.
func (c *Ctx) BackoffCASSync(addr blade.Addr, compare, swap uint64) (old uint64, swapped bool) {
	old, swapped = c.CASSync(addr, compare, swap)
	if swapped {
		return old, true
	}
	t := c.T
	if t.rt.opts.Backoff {
		t0 := t.rt.opts.BackoffUnit
		d := t0 << uint(c.casAttempts)
		if d > t.tmax || d <= 0 {
			d = t.tmax
		}
		d += sim.Time(t.rt.eng.Rand().Int63n(int64(t0)))
		c.casAttempts++
		if t.tel.Tracing() {
			t.tel.Emit(t.rt.eng.Now(), "backoff",
				fmt.Sprintf("t%d sleep=%s tmax=%s", t.ID, d, t.tmax))
		}
		// A backing-off coroutine is not executing: it returns its
		// operation credit for the duration of the delay so the
		// thread's other coroutines can run conflict-free operations,
		// and re-acquires it before retrying.
		if c.inOp && t.coroCredits != nil {
			t.coroCredits.Release(1)
			c.sleepReacquire(d)
		} else {
			c.proc.Sleep(d)
		}
	} else {
		c.casAttempts++
	}
	return old, false
}

// sleepReacquire is Sleep(d) then an Acquire of one operation credit,
// with the Acquire run as a stage of the sleep's wake (DESIGN.md §14,
// "Staged submission"): a coroutine that waits for both is switched
// into once, holding its credit again.
func (c *Ctx) sleepReacquire(d sim.Time) {
	if !c.proc.SleepStage(d, c.slept) {
		c.proc.Block()
		return
	}
	c.T.coroCredits.Acquire(c.proc, 1)
}

// backoffWoke is the backoff sleep's stage: the coroutine's credit
// Acquire, which resumes it at once or, granted later, through
// regained.
func (c *Ctx) backoffWoke() {
	if c.T.coroCredits.AcquireStage(c.proc, 1, c.regained) {
		c.proc.Resume()
	}
}

// BeginOp marks the start of one application operation. Under
// coroutine throttling it acquires one of the thread's c_max operation
// credits, so at most c_max of the thread's coroutines make progress
// concurrently under contention.
func (c *Ctx) BeginOp() {
	if c.T.coroCredits != nil {
		c.T.coroCredits.Acquire(c.proc, 1)
	}
	c.inOp = true
	c.opStart = c.T.rt.eng.Now()
	c.opRetries = 0
	c.casAttempts = 0
}

// BeginOpSince is BeginOp with an earlier latency origin: the
// operation's histogram sample spans from start (e.g. the request's
// arrival at the cluster, before any admission-queue wait) to EndOp,
// not just the service time on the thread. Open-loop serving uses it
// so p99/p999 reflect what a client would observe. start must not be
// in the future; later starts are clamped to now.
func (c *Ctx) BeginOpSince(start sim.Time) {
	c.BeginOp()
	if start < c.opStart {
		c.opStart = start
	}
}

// EndOp closes the operation bracket, releasing the operation credit
// and returning how many unsuccessful CAS retries the operation
// performed. It also ends the lifetime of every WR and Buf buffer the
// op took: the next op reuses them, so the application must hold none
// past this call. The exception is an op the card may still write
// into — one with a watchdog timeout (a timed-out launch can execute
// late) or one ending with WRs pending, buffered or awaiting retry.
// Its WRs and arena are left to the garbage collector instead, so a
// late execution lands in memory nobody reads.
func (c *Ctx) EndOp() (retries int) {
	t := c.T
	if t.coroCredits != nil {
		t.coroCredits.Release(1)
	}
	c.inOp = false
	if c.busy() {
		clear(c.opWRs)
		c.arena = nil
	} else {
		c.freeWRs = append(c.freeWRs, c.opWRs...)
	}
	c.opWRs = c.opWRs[:0]
	c.arenaOff = 0
	c.timedOut = false
	t.Stats.Ops++
	t.winOps++
	t.lat.Add(t.rt.eng.Now() - c.opStart)
	if t.tel.Tracing() {
		t.tel.Emit(t.rt.eng.Now(), "op-end",
			fmt.Sprintf("t%d lat=%s retries=%d", t.ID, t.rt.eng.Now()-c.opStart, c.opRetries))
	}
	return c.opRetries
}
