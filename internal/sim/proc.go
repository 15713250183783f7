//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

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
	blocked    bool   // parked until its own wake (see Block); Wake panics meanwhile
	stage      func() // while blocked in stages: what its activation runs instead of resuming it
	queued     int    // run-queue entries pending for it (see runQueue)
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

// activate counts the process's wake and resumes it, returning when it
// has parked again or finished. It runs in engine context, from the run
// queue or as the pre-bound callback (activateFn) that timed wakes
// schedule on the event heap. A process blocked in stages is not
// resumed: its activation runs the stage armed on its behalf instead,
// and that wake is counted here all the same.
func (p *Proc) activate() {
	if p.done {
		return // spurious wake after the process finished
	}
	p.eng.wakes++
	if p.stage != nil {
		p.stage()
		return
	}
	p.eng.switches++
	p.next()
}

// park hands the baton back to the engine and waits to be activated
// again. Only Suspend and Block call it (CI's "One way to block" step),
// after the park has been counted.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(killProc{})
	}
}

// stall counts the park p makes at a simulated blocking point and
// reports whether p runs on at once, without a coroutine switch.
//
// Self-wake short-circuit: when the next thing the engine would do is
// activate this very process at this same timestamp (Sleep(0), or a
// Wake arranged before Suspend or Await), control would bounce engine
// -> this process at once, so stall takes its own run-queue entry and
// reports true. The entry is taken only when it precedes the heap top in
// (timestamp, seq) order, and is counted as the event and the wake the
// engine would have counted, so the execution order and the
// Events/Parks/Wakes telemetry are those of a real switch.
func (p *Proc) stall() bool {
	e := p.eng
	e.parks++
	for e.runqFirst() {
		head := e.runq.first()
		if head.p != p && !head.p.done {
			return false // a live process is due first: the engine activates it
		}
		e.runq.pop()
		if head.p == p {
			e.wakes++
			e.events++
			e.mix(e.now, head.seq)
			return true
		}
		// Else a stale wake of a finished process ahead of ours, dropped
		// here without counting an event: the pinned Events totals (the
		// goldens' telemetry) were taken with it dropped at this point.
	}
	return false
}

// Sleep suspends the process for d of virtual time. Zero and negative
// durations still yield to events queued ahead of the process at the
// current timestamp, re-running it after them. It is SleepStage with
// no stage, then Block: only the Sleep's own timer resumes the process,
// and Wake panics meanwhile, as does a Wake still queued when it
// begins. It repeats SleepStage's arming rather than calling it: on
// the park-wake path (perf.MeasureKernel), where Sleep(0) runs on
// without a switch, one more call costs a tenth or more of the events
// per second.
func (p *Proc) Sleep(d Time) {
	p.arm()
	if d <= 0 {
		p.eng.enqueueRun(p)
	} else {
		p.eng.ScheduleAt(p.eng.now+d, p.activateFn)
	}
	if !p.stall() {
		p.Block()
	}
}

// Suspend parks the process until another component calls Wake. It is
// the one wait any Wake may end, the building block of WaitQueue, and
// the only one that is not staged. Whoever wakes the process must have
// arranged the wake before the park, or must do so from engine context
// later.
func (p *Proc) Suspend() {
	if !p.stall() {
		p.park()
	}
}

// Wake schedules the process to resume at the current virtual time.
// Must be called from engine context and only for a process that is
// currently suspended (or about to suspend at this timestamp); the
// engine's run-to-completion semantics make the pairing safe as long
// as the waker arranged the suspension. Waking a process that already
// finished, or any process after Stop, is a no-op that enqueues nothing
// and counts no wake. Waking a blocked one panics (see strayWake), from
// its Block until it runs again: in Sleep, in stages, or queued for a
// lock or credits, granted or not, its own wake is still pending, and a
// second would resume it early or from whatever it parks on next.
func (p *Proc) Wake() {
	if p.done || p.eng.stopped {
		return
	}
	if p.blocked {
		p.strayWake()
	}
	p.eng.enqueueRun(p)
}

// arm is the check every blocking wait makes before it arms p's own
// wake: a Wake of p still queued then was not arranged by the wait, and
// would resume p before its timer, hand-off or grant, so it panics (see
// strayWake). Together with Wake's check on a blocked process, it
// leaves a blocked process no wake but its own.
func (p *Proc) arm() {
	if p.queued != 0 {
		p.strayWake()
	}
}

// strayWake panics, naming p: a Wake reached p outside a Suspend, where
// only p's own wake may resume it. It stays a call, so the message's
// formatting is not inlined into every wait.
//
//go:noinline
func (p *Proc) strayWake() {
	panic(fmt.Sprintf("sim: stray Wake of %s, which runs only on its own wake while blocked (in Sleep, in stages, or until handed its lock or credit grant)", p.name))
}

// Blocking. Every wait but Suspend is staged: the process parks once,
// counted by the call that arms its wake, and only that wake resumes it.
// The protocol, for a process p (see verbs.QP.PostList):
//
//   - at each blocking point, SleepStage, Mutex.LockStage or
//     Credits.AcquireStage panics, naming p, if a Wake of p is still
//     queued (arm), then arms p's wake and counts the park. A true
//     result means p's wake was due at once, or the lock or credits
//     were free: the caller runs the next step inline, as p would have.
//     Only a false result sets the stage, so a stage is set only while
//     a staged wait is armed;
//   - on the first false result, while still in p's body, p calls
//     Block, which switches out without counting a second park. From
//     then until p runs again p is blocked, and Wake panics, naming it.
//     With arm's check, that is the one stray-wake guard (strayWake),
//     for a sleep's timer, a lock hand-off and a credit grant alike,
//     granted but not yet run included;
//   - p's activation, at the (at, seq) its wake draws, counts the wake
//     and runs the armed stage in engine context, or, with a nil stage,
//     switches into p itself. Sleep, Mutex.Lock and Credits.Acquire are
//     the nil-stage form, so a plain wait makes no stage call, no
//     closure and no extra switch;
//   - a stage runs its step and arms the next, or, on finishing the
//     work, calls Resume, which switches into p inside the current
//     event; or Await, when p's next step would be to Suspend on a
//     wake already arranged, which leaves p suspended without a
//     switch; or hands on to the next layer's continuation, which
//     carries p's work on within the same event (see
//     verbs.QP.PostListStage).
//
// Staged work. A process that is blocked until some multi-step
// simulated action finishes (a post through the QP lock and doorbell,
// in internal/verbs, and core's whole submission loop of credit waits
// and posts around it) need not be switched into at every step: after
// its first park it stays blocked, the steps run as stages, and the
// last stage resumes it once. A coroutine switch is a host cost; a park
// is a simulated blocking point. Since each stage fires as the
// process's own wake, Events, Parks, Wakes, Pending and every random
// draw are those of the process stepping through the action itself.

// SleepStage arms stage to run where Sleep(d) would have woken p — by
// p's own activation, at the same (at, seq) — and counts the park Sleep
// would make. It reports true if p's wake was due at once (the entry
// was taken and the wake counted, so stage does not run and the caller
// continues inline), false if stage will run. It panics, naming p, if
// a Wake of p is still queued (see arm). The wake goes through the run
// queue, behind what is already queued at this timestamp, when d <= 0,
// and on the event heap otherwise.
func (p *Proc) SleepStage(d Time, stage func()) bool {
	p.arm()
	if d <= 0 {
		p.eng.enqueueRun(p)
	} else {
		p.eng.ScheduleAt(p.eng.now+d, p.activateFn)
	}
	if p.stall() {
		return true
	}
	p.stage = stage
	return false
}

// Block switches out of a process whose park a SleepStage, LockStage
// or AcquireStage has already counted, until its wake switches into it
// (a nil stage), or a stage calls Resume, or Await and then a Wake. Wake
// panics until then. Must be called from the process's own body.
func (p *Proc) Block() {
	p.blocked = true
	p.park()
	p.blocked = false
}

// Resume switches into the blocked process inside the current event,
// with its wake already counted by activate, and returns when it has
// parked again or finished. Only a stage callback may call it.
func (p *Proc) Resume() {
	if !p.blocked || p.stage == nil {
		panic(fmt.Sprintf("sim: Resume of %s, which is not blocked in stages", p.name))
	}
	p.blocked, p.stage = false, nil
	p.eng.switches++
	p.next()
}

// Await ends staged work with the process suspended until a Wake, as
// if the last stage had called Resume and the process had called
// Suspend at once. It counts that park through stall, as Suspend
// would, stale run-queue entries included, but switches nowhere: the
// process is switched into once, by the Wake's activation, so of the
// engine's counters only Switches differs from Resume then Suspend.
// Whoever wakes the process must have arranged it before the call, as
// for Suspend. Should the park's self-wake short-circuit take the
// process's own run-queue entry, it runs on at once, and Await
// switches into it as Resume would. Only a stage callback may call it.
func (p *Proc) Await() {
	if !p.blocked || p.stage == nil {
		panic(fmt.Sprintf("sim: Await of %s, which is not blocked in stages", p.name))
	}
	p.blocked, p.stage = false, nil
	if p.stall() {
		p.eng.switches++
		p.next()
	}
}
