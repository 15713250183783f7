package sim

// Mutex is a first-come-first-served lock for simulated processes. It
// models driver-level spinlocks: the holder occupies the lock for some
// virtual time and queued waiters are serialized in arrival order.
// Waiters() exposes the queue length so models can charge contention
// penalties (e.g., cache-line bouncing on a doorbell spinlock).
//
// A Mutex is a Credits pool holding one credit: held is a balance of
// 0, and Unlock's release grants the credit to the oldest waiter, so
// locks and credits share one FCFS hand-off.
type Mutex struct {
	c Credits

	// Acquisitions counts Lock and LockStage calls. Useful for model
	// diagnostics.
	Acquisitions uint64
}

// NewMutex returns an unlocked mutex bound to e.
func NewMutex(e *Engine) *Mutex { return &Mutex{c: Credits{eng: e, avail: 1}} }

// Lock acquires the mutex, blocking p in FCFS order if it is held: it
// is LockStage with no stage, then Block, so only Unlock's hand-off
// resumes p. A Wake of p still queued when p queues, or made before p
// runs again, panics, naming it.
func (m *Mutex) Lock(p *Proc) {
	m.Acquisitions++
	m.c.Acquire(p, 1)
}

// LockStage is Lock for staged work: Credits.AcquireStage for the one
// credit.
func (m *Mutex) LockStage(p *Proc, stage func()) bool {
	m.Acquisitions++
	return m.c.AcquireStage(p, 1, stage)
}

// Unlock releases the mutex, handing it directly to the oldest waiter
// if any. Must be called by the current holder, from engine context or
// the holding process. It returns the one credit itself rather than
// through Release, whose negative-count check it does not need, so an
// uncontended Unlock is inlined and makes no call.
func (m *Mutex) Unlock() {
	if m.c.avail > 0 {
		panic("sim: Unlock of unheld Mutex")
	}
	m.c.avail++
	if len(m.c.q) > 0 {
		m.c.drain()
	}
}

// Waiters returns the number of processes queued on the mutex.
func (m *Mutex) Waiters() int { return m.c.Waiters() }

// Contended returns how many Lock and LockStage calls had to queue.
func (m *Mutex) Contended() uint64 { return m.c.Waits }
