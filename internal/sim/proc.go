//go:build go1.23

package sim

import "iter"

// Proc is a simulated process: a runtime coroutine (iter.Pull) that
// runs in lockstep with the engine. Exactly one of {engine, some
// process} executes at a time. Compute-blade threads and SMART
// coroutines are both modeled as Procs.
//
// Race-freedom of the handoff. Engine state (Engine.now, the event
// queues, Engine.procs) and process state (Proc.done) are accessed
// without locks. This is sound because a coroutine switch suspends the
// switching side before the other side continues — the two are never
// runnable at once, on any number of Ps — and iter.Pull brackets every
// switch with a release/acquire pair the race detector sees:
//
//   - engine -> process: activate's next() happens-before the return of
//     the yield the process is parked in, so every engine-side write
//     (queue pops, clock advance) is visible to the process when it
//     resumes;
//   - process -> engine: park's yield happens-before next() returns, so
//     every process-side write (events scheduled via Schedule, procs--,
//     done = true) is visible to the engine before it runs again;
//   - process -> process: there is no direct edge. Every switch has the
//     engine on one side, so one process's writes reach the next
//     through the two edges above;
//   - shutdown: Stop calls one process's stop at a time. stop resumes
//     the parked coroutine with a false yield, park raises killProc,
//     the body's deferred cleanups run, and only when the coroutine has
//     exited does stop return. Teardown is serial by construction — no
//     two cleanups (which touch state shared by a thread's coroutines)
//     can overlap, and their writes are visible when Stop returns.
//
// A panic in a process body is re-raised by next() (or stop()) on the
// goroutine that called Run (or Stop), where the caller can recover and
// attribute it. `go test -race -cpu 1,4 ./internal/sim` (wired into CI)
// checks the invariant at one P and across Ps.
type Proc struct {
	eng        *Engine
	name       string
	next       func() (struct{}, bool) // engine -> process: run until the next park
	yield      func(struct{}) bool     // process -> engine; false once Stop unwinds us
	stop       func()                  // unwind a parked (or never started) process
	activateFn func()                  // pre-bound activate, reused by every timed wake
	done       bool
}

// killProc is panicked inside a parked process when the engine shuts
// down, unwinding the coroutine so long-lived simulations do not leak.
type killProc struct{}

// Go spawns a simulated process that begins executing at the current
// virtual time (after already-queued events at this timestamp). The
// body runs entirely in virtual time; it must block only through Proc
// methods or the sim synchronization primitives.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	// One method-value allocation per process, reused by every
	// Sleep-scheduled activation for its whole lifetime.
	p.activateFn = p.activate
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killProc); !ok {
					panic(r) // re-raised by next/stop in Run's/Stop's caller
				}
			}
		}()
		p.yield = yield
		body(p)
		p.done = true
		e.procs--
	})
	e.procs++
	e.live = append(e.live, p)
	e.enqueueRun(p)
	return p
}

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// activate resumes the process and returns when it has parked again or
// finished. It runs in engine context, from the run queue or as the
// pre-bound callback (activateFn) that timed wakes schedule on the
// event heap.
func (p *Proc) activate() {
	if p.done {
		return // spurious wake after the process finished
	}
	p.eng.wakes++
	p.next()
}

// park hands the baton back to the engine and waits to be activated
// again. Whoever wants to wake the process must have arranged an
// activation (event or queue signal) before the park, or must do so
// from engine context later.
//
// Self-wake short-circuit: when the next thing the engine would do is
// activate this very process at this same timestamp (Sleep(0), or a
// wake arranged before parking), control would bounce engine -> this
// process at once, so park takes its own run-queue entry and keeps
// running. The entry is taken only when it precedes the heap top in
// (timestamp, seq) order, and is counted as the event and the wake the
// engine would have counted, so the execution order and the
// Events/Parks/Wakes telemetry are those of a real switch.
func (p *Proc) park() {
	e := p.eng
	e.parks++
	for e.runqFirst() {
		head := e.runq.first().p
		if head != p && !head.done {
			break // a live process is due first: the engine activates it
		}
		e.runq.pop()
		if head == p {
			e.wakes++
			e.events++
			return
		}
		// Else a stale wake of a finished process ahead of ours, dropped
		// here without counting an event: the pinned Events totals (the
		// goldens' telemetry) were taken with it dropped at this point.
	}
	if !p.yield(struct{}{}) {
		panic(killProc{})
	}
}

// Sleep suspends the process for d of virtual time. Zero and negative
// durations still yield to events queued ahead of the process at the
// current timestamp, re-running it after them.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		p.eng.enqueueRun(p)
	} else {
		p.eng.ScheduleAt(p.eng.now+d, p.activateFn)
	}
	p.park()
}

// Suspend parks the process until another component calls Wake. It is
// the building block for condition-style waiting.
func (p *Proc) Suspend() {
	p.park()
}

// Wake schedules the process to resume at the current virtual time.
// Must be called from engine context and only for a process that is
// currently suspended (or about to suspend at this timestamp); the
// engine's run-to-completion semantics make the pairing safe as long
// as the waker arranged the suspension. Waking a process that already
// finished is a no-op that enqueues nothing and counts no wake.
func (p *Proc) Wake() {
	if p.done {
		return
	}
	p.eng.enqueueRun(p)
}
