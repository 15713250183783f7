package sim

// Mutex is a first-come-first-served lock for simulated processes. It
// models driver-level spinlocks: the holder occupies the lock for some
// virtual time and queued waiters are serialized in arrival order.
// Waiters() exposes the queue length so models can charge contention
// penalties (e.g., cache-line bouncing on a doorbell spinlock).
type Mutex struct {
	eng  *Engine
	held bool
	q    []*Proc

	// Acquisitions counts successful Lock calls; Contended counts Lock
	// calls that had to queue. Useful for model diagnostics.
	Acquisitions uint64
	Contended    uint64
}

// NewMutex returns an unlocked mutex bound to e.
func NewMutex(e *Engine) *Mutex { return &Mutex{eng: e} }

// Lock acquires the mutex, parking p in FCFS order if it is held.
func (m *Mutex) Lock(p *Proc) {
	m.Acquisitions++
	if !m.held {
		m.held = true
		return
	}
	m.Contended++
	m.q = append(m.q, p)
	p.Suspend()
	// Ownership was transferred to us by Unlock before the wake.
}

// Unlock releases the mutex, handing it directly to the oldest waiter
// if any. Must be called by the current holder, from engine context or
// the holding process.
func (m *Mutex) Unlock() {
	if !m.held {
		panic("sim: Unlock of unheld Mutex")
	}
	if len(m.q) == 0 {
		m.held = false
		return
	}
	next := m.q[0]
	copy(m.q, m.q[1:])
	m.q = m.q[:len(m.q)-1]
	// The mutex stays held; ownership passes to next.
	next.Wake()
}

// Waiters returns the number of processes queued on the mutex.
func (m *Mutex) Waiters() int { return len(m.q) }
