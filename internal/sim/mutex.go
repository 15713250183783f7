package sim

import "fmt"

// Mutex is a first-come-first-served lock for simulated processes. It
// models driver-level spinlocks: the holder occupies the lock for some
// virtual time and queued waiters are serialized in arrival order.
// Waiters() exposes the queue length so models can charge contention
// penalties (e.g., cache-line bouncing on a doorbell spinlock).
type Mutex struct {
	eng   *Engine
	held  bool
	owner *Proc // the process the lock was last taken by or handed to
	q     []*Proc

	// Acquisitions counts successful Lock calls; Contended counts Lock
	// calls that had to queue. Useful for model diagnostics.
	Acquisitions uint64
	Contended    uint64
}

// NewMutex returns an unlocked mutex bound to e.
func NewMutex(e *Engine) *Mutex { return &Mutex{eng: e} }

// Lock acquires the mutex, parking p in FCFS order if it is held. A
// waiter resumed by anything but Unlock's handoff panics, naming it.
func (m *Mutex) Lock(p *Proc) {
	m.Acquisitions++
	if !m.held {
		m.held, m.owner = true, p
		return
	}
	m.Contended++
	m.q = append(m.q, p)
	p.Suspend()
	m.checkHanded(p)
}

// LockStage is Lock for staged work (see Proc.SleepStage): it reports
// true if p took the free mutex; otherwise it queues p in FCFS order,
// counts the park Lock would make and reports false, and Unlock later
// hands the mutex to p by running stage on its behalf in engine
// context.
func (m *Mutex) LockStage(p *Proc, stage func()) bool {
	m.Acquisitions++
	if !m.held {
		m.held, m.owner = true, p
		return true
	}
	m.Contended++
	m.q = append(m.q, p)
	p.stage = stage
	if p.stall() {
		m.checkHanded(p) // a wake arranged before the park cannot be a handoff
	}
	return false
}

// checkHanded panics unless Unlock handed the mutex to p.
func (m *Mutex) checkHanded(p *Proc) {
	if m.owner != p {
		panic(fmt.Sprintf("sim: %s resumed from a Mutex wait without being handed the lock", p.name))
	}
}

// Unlock releases the mutex, handing it directly to the oldest waiter
// if any. Must be called by the current holder, from engine context or
// the holding process.
func (m *Mutex) Unlock() {
	if !m.held {
		panic("sim: Unlock of unheld Mutex")
	}
	if len(m.q) == 0 {
		m.held, m.owner = false, nil
		return
	}
	next := m.q[0]
	copy(m.q, m.q[1:])
	m.q = m.q[:len(m.q)-1]
	// The mutex stays held; ownership passes to next, which is resumed,
	// or whose stage runs if it is blocked in stages (see LockStage).
	// No Wake: that panics on a process blocked in stages.
	m.owner = next
	m.eng.enqueueRun(next)
}

// Waiters returns the number of processes queued on the mutex.
func (m *Mutex) Waiters() int { return len(m.q) }
