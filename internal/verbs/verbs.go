// Package verbs provides an ibverbs-like programming interface over
// the simulated RNIC: device contexts, completion queues, reliably
// connected queue pairs, and one-sided work requests (READ, WRITE,
// CAS, FAA).
//
// It also reproduces the two driver-level behaviours the SMART paper
// builds on (§2.2, §3.1):
//
//   - Doorbell registers are allocated per device context (4
//     low-latency + 12 medium-latency by default, raisable with the
//     equivalent of MLX5_TOTAL_UUARS), each newly created QP is
//     associated with a medium-latency doorbell in round-robin order,
//     and every update to a doorbell is protected by a driver spinlock
//     — so threads whose QPs implicitly share a doorbell contend even
//     though they never share a QP.
//
//   - Access to a QP itself is serialized by a userspace lock, which
//     is what makes shared/multiplexed QP policies slow.
package verbs

import (
	"fmt"

	"repro/internal/blade"
	"repro/internal/rnic"
	"repro/internal/sim"
)

// Target identifies a remote memory blade as seen by a queue pair: the
// blade's memory and the RNIC that fronts it.
type Target struct {
	NIC *rnic.RNIC
	Mem *blade.Blade
}

// Doorbell is one doorbell register in the device's user access
// region. Ringing it requires the driver spinlock; the hold time grows
// with the number of spinning waiters (cache-line bouncing), which is
// the §3.1 scale-up bottleneck.
type Doorbell struct {
	Index int
	mu    *sim.Mutex

	Rings uint64

	// HoldTicks accumulates virtual time spent holding the spinlock
	// across all rings — the Neo-Host-style signal that separates "many
	// rings" from "many slow rings" (waiter-inflated holds, §3.1).
	HoldTicks sim.Time
}

// Waiters reports the number of threads currently queued on the
// doorbell spinlock (diagnostic).
func (d *Doorbell) Waiters() int { return d.mu.Waiters() }

// Acquisitions reports total takes of the doorbell spinlock.
func (d *Doorbell) Acquisitions() uint64 { return d.mu.Acquisitions }

// Contended reports how many of those takes had to queue first.
func (d *Doorbell) Contended() uint64 { return d.mu.Contended() }

// Context is an open device context. Doorbell registers belong to the
// context; queue pairs created on the context are bound to its
// medium-latency doorbells in round-robin creation order.
type Context struct {
	nic    *rnic.RNIC
	eng    *sim.Engine
	medium []*Doorbell
	qps    int // QPs created so far (round-robin cursor)
}

// Open opens a device context on the card. Each additional context
// increases MTT/MPT pressure on the card (see rnic.Params).
func Open(nic *rnic.RNIC) *Context {
	c := &Context{nic: nic, eng: nic.Engine()}
	nic.AddContext()
	c.setMedium(nic.P.DefaultMediumDBs)
	return c
}

func (c *Context) setMedium(n int) {
	c.medium = make([]*Doorbell, n)
	for i := range c.medium {
		c.medium[i] = &Doorbell{Index: i, mu: sim.NewMutex(c.eng)}
	}
}

// SetMediumDoorbells resizes the context's medium-latency doorbell
// set, modelling MLX5_TOTAL_UUARS plus the driver patch the paper
// describes. It must be called before any QP is created and cannot
// exceed the hardware limit.
func (c *Context) SetMediumDoorbells(n int) error {
	if c.qps > 0 {
		return fmt.Errorf("verbs: doorbells must be configured before QP creation")
	}
	if n < 1 || n > c.nic.P.MaxDoorbells {
		return fmt.Errorf("verbs: %d doorbells out of range [1,%d]", n, c.nic.P.MaxDoorbells)
	}
	c.setMedium(n)
	return nil
}

// MediumDoorbells returns the number of medium-latency doorbells.
func (c *Context) MediumDoorbells() int { return len(c.medium) }

// Doorbells returns the context's medium-latency doorbell registers in
// index order, for telemetry harvesting.
func (c *Context) Doorbells() []*Doorbell { return c.medium }

// NextDoorbell returns the index of the doorbell the next created QP
// will be bound to. The mapping is not controllable through the API —
// only deterministic — which is exactly the property SMART exploits by
// ordering QP creation (§4.1).
func (c *Context) NextDoorbell() int { return c.qps % len(c.medium) }

// NIC returns the underlying card.
func (c *Context) NIC() *rnic.RNIC { return c.nic }

// CQE is a completion queue entry. Status mirrors the work request's
// completion status at delivery time; consumers that predate the fault
// model can keep ignoring it (the zero value is success).
type CQE struct {
	WR     *WR
	Status rnic.Status
}

// cqWaiter is a parked consumer waiting for need entries.
type cqWaiter struct {
	p    *sim.Proc
	need int
}

// CQ is a completion queue. The simulator's framework and applications
// complete every work request through its OnComplete callback, which
// bypasses the entry buffer. Only a WR without one leaves a CQE here for
// Poll (non-blocking) or WaitN (blocking); the one users of that are
// perf's doorbell kernel path and e2ebench's ladder.
type CQ struct {
	eng     *sim.Engine
	entries []CQE
	waiters []cqWaiter
	pool    [][]CQE // recycled Poll buffers (see Recycle)

	Delivered uint64

	// Stale counts completions discarded by the attempt guard: the
	// card's CQE for an op the software watchdog had already expired
	// (and possibly reposted). Real RC QPs transition to an error state
	// instead; the model quietly drops the late arrival.
	Stale uint64
}

// CreateCQ returns an empty completion queue on the context.
func (c *Context) CreateCQ() *CQ {
	return &CQ{eng: c.eng}
}

// complete is the single delivery path for every completion — success,
// card-reported error, and watchdog timeout alike. The attempt guard
// drops late card completions for WRs the watchdog already expired, so
// a reposted WR never sees its predecessor's CQE. Error completions
// take the same buffer-and-kick route as successes: a consumer parked
// in WaitN wakes even when every op in its batch failed.
func (q *CQ) complete(wr *WR, attempt uint64, st rnic.Status) {
	if attempt != wr.attempt || wr.completed {
		q.Stale++
		return
	}
	wr.completed = true
	wr.Status = st
	q.Delivered++
	if wr.OnComplete != nil {
		wr.OnComplete(wr)
		return
	}
	q.entries = append(q.entries, CQE{WR: wr, Status: st})
	q.kick()
}

// Expire delivers a synthetic StatusTimeout completion for the given
// attempt of a WR whose card completion never arrived (blackholed, or
// just too slow for the caller's deadline). It is the software
// watchdog's entry point: a no-op if that attempt already completed or
// the WR has since been reposted, so a timer armed for attempt N can
// never kill attempt N+1.
func (q *CQ) Expire(wr *WR, attempt uint64) {
	q.complete(wr, attempt, rnic.StatusTimeout)
}

// kick wakes the front waiter if its demand is satisfiable. Waiters
// are served FCFS; the woken waiter re-kicks after draining.
func (q *CQ) kick() {
	if len(q.waiters) > 0 && len(q.entries) >= q.waiters[0].need {
		w := q.waiters[0]
		copy(q.waiters, q.waiters[1:])
		q.waiters = q.waiters[:len(q.waiters)-1]
		w.p.Wake()
	}
}

// Poll drains up to max entries without blocking. max <= 0 drains all.
// The returned buffer is owned by the caller; handing it back with
// Recycle once the entries are consumed makes steady-state polling
// allocation-free.
func (q *CQ) Poll(max int) []CQE {
	n := len(q.entries)
	if max > 0 && max < n {
		n = max
	}
	if n == 0 {
		return nil
	}
	var out []CQE
	if m := len(q.pool); m > 0 {
		out = q.pool[m-1]
		q.pool[m-1] = nil
		q.pool = q.pool[:m-1]
		out = append(out[:0], q.entries[:n]...)
	} else {
		out = make([]CQE, n)
		copy(out, q.entries[:n])
	}
	q.entries = q.entries[:copy(q.entries, q.entries[n:])]
	return out
}

// Recycle returns a buffer previously obtained from Poll or WaitN to
// the queue's buffer pool for reuse by a later drain. The caller must
// not touch buf (or the CQEs in it) afterwards. Recycling is optional —
// unreturned buffers are simply collected as garbage.
func (q *CQ) Recycle(buf []CQE) {
	if cap(buf) == 0 {
		return
	}
	q.pool = append(q.pool, buf[:0])
}

// Len returns the number of undrained entries.
func (q *CQ) Len() int { return len(q.entries) }

// WaitN blocks p until n entries are available, then drains and
// returns exactly n.
func (q *CQ) WaitN(p *sim.Proc, n int) []CQE {
	for len(q.entries) < n {
		q.waiters = append(q.waiters, cqWaiter{p: p, need: n})
		p.Suspend()
	}
	out := q.Poll(n)
	q.kick()
	return out
}

// WR is a one-sided work request.
type WR struct {
	Kind   rnic.OpKind
	Remote blade.Addr
	Local  []byte // READ destination / WRITE source

	Compare, Swap uint64 // CAS operands
	Add           uint64 // FAA operand
	Result        uint64 // previous remote value, for CAS/FAA

	ID uint64 // caller-owned tag (SMART stores batch metadata here)

	// Status is the completion status of the most recent attempt,
	// filled in at delivery time. Success until proven otherwise.
	Status rnic.Status

	// OnComplete, when set, is invoked at completion time instead of
	// buffering a CQE. SMART uses it to route completions to the
	// posting coroutine and to replenish throttling credits.
	OnComplete func(*WR)

	// attempt and completed implement the repost/timeout protocol:
	// each launch bumps attempt, and the CQ delivers at most one
	// completion per attempt (late card CQEs after a watchdog Expire
	// are dropped as stale). Both survive Reset.
	attempt   uint64
	completed bool
}

// Read builds a READ work request fetching len(buf) bytes.
func Read(remote blade.Addr, buf []byte) *WR {
	return &WR{Kind: rnic.OpRead, Remote: remote, Local: buf}
}

// Write builds a WRITE work request storing src.
func Write(remote blade.Addr, src []byte) *WR {
	return &WR{Kind: rnic.OpWrite, Remote: remote, Local: src}
}

// CAS builds an 8-byte compare-and-swap work request.
func CAS(remote blade.Addr, compare, swap uint64) *WR {
	return &WR{Kind: rnic.OpCAS, Remote: remote, Compare: compare, Swap: swap}
}

// FAA builds an 8-byte fetch-and-add work request.
func FAA(remote blade.Addr, add uint64) *WR {
	return &WR{Kind: rnic.OpFAA, Remote: remote, Add: add}
}

// Attempt returns the WR's current attempt number. A watchdog armed
// after posting captures it so its Expire targets exactly that launch.
func (w *WR) Attempt() uint64 { return w.attempt }

// Reset clears every exported field so w can be filled in as a new work
// request, keeping only its attempt counter and completion latch. A
// completion still in flight for one of w's earlier attempts — a late
// card CQE, or a watchdog armed for that attempt — therefore stays
// stale: CQ.Stale counts it and nothing is delivered, whether or not w
// has been reposted since. Rewinding the counter would let such a
// completion pass the attempt guard of the reused request.
func (w *WR) Reset() { *w = WR{attempt: w.attempt, completed: w.completed} }

// Succeeded reports whether a CAS work request completed successfully
// and swapped. A CAS that erred or timed out never executed at the
// responder, so its Result is meaningless and it did not swap.
func (w *WR) Succeeded() bool {
	return w.Kind == rnic.OpCAS && w.Status == rnic.StatusSuccess && w.Result == w.Compare
}

func (w *WR) payload() int {
	switch w.Kind {
	case rnic.OpRead, rnic.OpWrite:
		return len(w.Local)
	default:
		return 8
	}
}

// QP is a reliably connected queue pair bound to one remote memory
// blade. All of a QP's completions land on its CQ.
type QP struct {
	ctx     *Context
	cq      *CQ
	db      *Doorbell
	remote  Target
	lock    *sim.Mutex // userspace QP lock (mlx5 sq.lock)
	free    []*launch  // recycled in-flight slots (see launch)
	posters []*poster  // recycled PostList state (see poster)

	Posted uint64
}

// launch is one in-flight posting of a WR: the card-model Op plus the
// state its callbacks need. Launches are pooled per QP — the steady
// state of a SMART-style workload posts millions of WRs through a
// handful of QPs, and before pooling every post allocated an Op and
// two capturing closures. The exec and complete callbacks are bound to
// the Op exactly once, when the launch is first created, so a recycled
// launch re-enters the card with zero new allocations.
type launch struct {
	q       *QP
	wr      *WR
	attempt uint64
	op      rnic.Op
}

// exec applies the WR's memory side effect at the responder, at the
// virtual time the real card would apply it.
func (l *launch) exec() {
	wr, mem := l.wr, l.q.remote.Mem
	switch wr.Kind {
	case rnic.OpRead:
		mem.ReadInto(wr.Remote.Offset, wr.Local)
	case rnic.OpWrite:
		mem.Write(wr.Remote.Offset, wr.Local)
	case rnic.OpCAS:
		wr.Result, _ = mem.CAS(wr.Remote.Offset, wr.Compare, wr.Swap)
	case rnic.OpFAA:
		wr.Result = mem.FAA(wr.Remote.Offset, wr.Add)
	}
}

// complete recycles the launch and then delivers the completion. The
// order matters: invoking Complete is the card model's very last touch
// of the Op (rnic.RNIC.complete), and OnComplete handlers commonly
// repost on the same QP, so returning the slot to the pool first lets
// the repost reuse it immediately. Stale attempts — the watchdog
// expired this launch and the WR was already reposted — recycle too:
// the card is done with the Op either way, and the CQ's attempt guard
// drops the late delivery. Blackholed launches never complete and are
// simply left to the garbage collector.
func (l *launch) complete() {
	q, wr, attempt, st := l.q, l.wr, l.attempt, l.op.Status
	l.wr = nil
	q.free = append(q.free, l)
	q.cq.complete(wr, attempt, st)
}

// CreateQP creates a queue pair on the context, connected to remote,
// completing into cq. The QP is bound to the next medium-latency
// doorbell in round-robin order — the driver behaviour from Fig. 2.
func (c *Context) CreateQP(cq *CQ, remote Target) *QP {
	db := c.medium[c.qps%len(c.medium)]
	c.qps++
	return &QP{ctx: c, cq: cq, db: db, remote: remote, lock: sim.NewMutex(c.eng)}
}

// Doorbell returns the doorbell register the QP is bound to.
func (q *QP) Doorbell() *Doorbell { return q.db }

// Remote returns the blade the QP is connected to.
func (q *QP) Remote() Target { return q.remote }

// CQ returns the completion queue the QP reports into.
func (q *QP) CQ() *CQ { return q.cq }

// PostSend posts the work requests to the card one at a time, each a
// chain of one: for each WR the calling thread pays the userspace QP
// lock (contended when several threads share the QP) and the doorbell
// ring (contended when several threads' QPs share a doorbell
// register), then the WR travels through the card model and eventually
// completes into the QP's CQ.
func (q *QP) PostSend(p *sim.Proc, wrs ...*WR) {
	for i := range wrs {
		q.PostList(p, wrs[i:i+1]...)
	}
}

// launch hands the WR to the card model on a pooled in-flight slot.
// Each launch opens a fresh attempt: the WR's status resets to success
// and any completion still in flight from a previous (expired) attempt
// becomes stale. The slot's Op status must be reset too — a recycled
// slot may have carried an error (rnic failAfter writes Op.Status).
func (q *QP) launch(wr *WR) {
	wr.attempt++
	wr.completed = false
	wr.Status = rnic.StatusSuccess
	var l *launch
	if n := len(q.free); n > 0 {
		l = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		l = &launch{q: q}
		l.op.Exec = l.exec
		l.op.Complete = l.complete
	}
	l.wr = wr
	l.attempt = wr.attempt
	l.op.Kind = wr.Kind
	l.op.Payload = wr.payload()
	l.op.Status = rnic.StatusSuccess
	q.ctx.nic.Submit(&l.op, q.remote.NIC, q.remote.Mem.Kind)
}
