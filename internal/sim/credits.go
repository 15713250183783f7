package sim

// Credits is a counting semaphore whose balance may be adjusted (even
// below zero) at runtime. It models SMART's credit-based work-request
// throttling (Algorithm 1): posting a batch of size n acquires n
// credits, completion replenishes them, and the epoch tuner moves the
// ceiling by adding a (possibly negative) delta.
type Credits struct {
	eng   *Engine
	avail int64
	q     []creditWaiter

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

// Acquire takes n credits, blocking p until the balance allows it.
// Waiters are served strictly in FIFO order so a large request cannot
// be starved by a stream of small ones. It is AcquireStage with no
// stage, then Block: only the grant resumes p. A Wake of p still
// queued when p queues, or made before p runs again, panics, naming it
// (see Proc.arm and Proc.Block).
func (c *Credits) Acquire(p *Proc, n int64) {
	if !c.AcquireStage(p, n, nil) {
		p.Block()
	}
}

// AcquireStage is Acquire for staged work (see Proc.SleepStage): it
// reports true if p took the credits at once; otherwise it queues p in
// FIFO order, counts the park Acquire would make and reports false, and
// a later Release or Add grants the credits through p's activation,
// which runs stage on p's behalf in engine context (or, for a nil
// stage, resumes p). A Wake of p still queued when p would queue cannot
// be a grant, so it panics, naming p, instead of running on as if
// granted (see Proc.arm).
func (c *Credits) AcquireStage(p *Proc, n int64, stage func()) bool {
	if n < 0 {
		panic("sim: negative credit acquire")
	}
	if len(c.q) == 0 && c.avail >= n {
		c.avail -= n
		return true
	}
	p.arm()
	c.Waits++
	c.q = append(c.q, creditWaiter{p: p, n: n})
	p.stall() // p has no entry queued, so it cannot run on: this counts the park
	p.stage = stage
	return false
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
// hands over its one credit here too): the waiter's activation resumes
// it, or runs its stage (see AcquireStage). No Wake: the waiter is
// blocked, and Wake panics on it. drain stays a call: inlined, its loop
// would push Release, Add and Unlock over the inlining budget, and every
// uncontended release would become a call instead.
//
//go:noinline
func (c *Credits) drain() {
	for len(c.q) > 0 && c.avail >= c.q[0].n {
		w := c.q[0]
		copy(c.q, c.q[1:])
		c.q = c.q[:len(c.q)-1]
		c.avail -= w.n
		c.eng.enqueueRun(w.p)
	}
}
