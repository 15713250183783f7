package sim

import "fmt"

// Credits is a counting semaphore whose balance may be adjusted (even
// below zero) at runtime. It models SMART's credit-based work-request
// throttling (Algorithm 1): posting a batch of size n acquires n
// credits, completion replenishes them, and the epoch tuner moves the
// ceiling by adding a (possibly negative) delta.
type Credits struct {
	eng     *Engine
	avail   int64
	q       []creditWaiter
	granted uint64 // waiters served so far; waiter k (from 0, in queue order) holds a grant once granted > k

	// Waits counts Acquire and AcquireStage calls that had to block.
	Waits uint64
}

type creditWaiter struct {
	p *Proc
	n int64
}

// NewCredits returns a credit pool with the given initial balance.
func NewCredits(e *Engine, initial int64) *Credits {
	return &Credits{eng: e, avail: initial}
}

// Available returns the current balance, which may be negative after a
// downward Add.
func (c *Credits) Available() int64 { return c.avail }

// Waiters returns the number of blocked acquirers.
func (c *Credits) Waiters() int { return len(c.q) }

// Acquire takes n credits, parking p until the balance allows it.
// Waiters are served strictly in FIFO order so a large request cannot
// be starved by a stream of small ones. A waiter resumed by anything
// but a grant panics, naming it.
func (c *Credits) Acquire(p *Proc, n int64) {
	if c.take(n) {
		return
	}
	ticket := c.enqueue(p, n)
	p.Suspend()
	c.checkGranted(p, ticket)
}

// AcquireStage is Acquire for staged work (see Proc.SleepStage): it
// reports true if p took the credits at once; otherwise it queues p in
// FIFO order, counts the park Acquire would make and reports false, and
// a later Release or Add grants the credits by running stage on p's
// behalf in engine context.
func (c *Credits) AcquireStage(p *Proc, n int64, stage func()) bool {
	if c.take(n) {
		return true
	}
	ticket := c.enqueue(p, n)
	p.stage = stage
	if p.stall() {
		c.checkGranted(p, ticket) // a wake arranged before the park cannot be a grant
	}
	return false
}

// take debits n credits if no one is queued ahead and the balance
// allows it.
func (c *Credits) take(n int64) bool {
	if n < 0 {
		panic("sim: negative credit acquire")
	}
	if len(c.q) == 0 && c.avail >= n {
		c.avail -= n
		return true
	}
	return false
}

// enqueue queues p for n credits and returns its place in the grant
// order.
func (c *Credits) enqueue(p *Proc, n int64) (ticket uint64) {
	ticket = c.Waits
	c.Waits++
	c.q = append(c.q, creditWaiter{p: p, n: n})
	return ticket
}

// checkGranted panics unless drain has granted the waiter queued at
// ticket.
func (c *Credits) checkGranted(p *Proc, ticket uint64) {
	if c.granted <= ticket {
		panic(fmt.Sprintf("sim: %s resumed from a credit or lock wait without being handed its grant", p.name))
	}
}

// Release returns n credits and grants any waiters the new balance can
// satisfy. With no one waiting it makes no call, so it stays under the
// inlining budget (CI's "Inlined uncontended releases" step).
func (c *Credits) Release(n int64) {
	if n < 0 {
		panic("sim: negative credit release")
	}
	c.avail += n
	if len(c.q) > 0 {
		c.drain()
	}
}

// Add adjusts the balance by delta (which may be negative) and grants
// newly satisfiable waiters. Like Release, it calls drain only when
// someone waits.
func (c *Credits) Add(delta int64) {
	c.avail += delta
	if len(c.q) > 0 {
		c.drain()
	}
}

// drain grants the front waiters the balance covers, in FIFO order. A
// grant debits the waiter's credits and hands them over through the
// run queue, the one FCFS hand-off of the kernel (a Mutex's Unlock
// hands over its one credit here too): the waiter is resumed, or its
// stage runs if it is blocked in stages (see AcquireStage). No Wake:
// that panics on a process blocked in stages.
func (c *Credits) drain() {
	for len(c.q) > 0 && c.avail >= c.q[0].n {
		w := c.q[0]
		copy(c.q, c.q[1:])
		c.q = c.q[:len(c.q)-1]
		c.avail -= w.n
		c.granted++
		c.eng.enqueueRun(w.p)
	}
}
