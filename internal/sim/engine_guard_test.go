package sim

import (
	"fmt"
	"strings"
	"testing"
)

// These tests pin the engine's lifecycle guards: what Schedule, Run,
// Step, and Wake are allowed to do after Stop, and what waking a
// finished process may (not) count or enqueue.

func TestRunAfterStopIsNoOp(t *testing.T) {
	e := New(1)
	e.Schedule(5*Nanosecond, func() {})
	e.Run(0)
	e.Stop()
	fired := false
	e.Schedule(1*Nanosecond, func() { fired = true })
	if got := e.Run(0); got != 5 {
		t.Fatalf("Run after Stop = %v, want the stop-time 5", got)
	}
	if got := e.Run(100 * Nanosecond); got != 5 {
		t.Fatalf("Run(until) after Stop = %v, want the stop-time 5", got)
	}
	if fired {
		t.Fatal("event scheduled after Stop fired")
	}
}

func TestStepAfterStopReportsFalse(t *testing.T) {
	e := New(1)
	e.Schedule(1*Nanosecond, func() {})
	e.Stop()
	if e.Step() {
		t.Fatal("Step after Stop reported true")
	}
}

func TestStepDrainsRunQueueFirst(t *testing.T) {
	// A woken process and a same-timestamp timer must execute in
	// scheduling order under Step, exactly as under Run.
	e := New(1)
	defer e.Stop()
	var order []string
	p := e.Go("w", func(p *Proc) {
		p.Suspend()
		order = append(order, "proc")
	})
	e.Run(0) // park the process
	e.Schedule(0, func() { order = append(order, "timer") })
	p.Wake() // enqueued after the timer: must run second
	for e.Step() {
	}
	if len(order) != 2 || order[0] != "timer" || order[1] != "proc" {
		t.Fatalf("Step order = %v, want [timer proc]", order)
	}
}

func TestWakeOnDoneProcEnqueuesNothing(t *testing.T) {
	e := New(1)
	defer e.Stop()
	p := e.Go("quick", func(p *Proc) {})
	e.Run(0)
	if !p.Done() {
		t.Fatal("process did not finish")
	}
	wakes, pending := e.Wakes(), e.Pending()
	p.Wake()
	p.Wake()
	if got := e.Pending(); got != pending {
		t.Fatalf("Pending after waking a done proc = %d, want %d (nothing enqueued)", got, pending)
	}
	if got := e.Wakes(); got != wakes {
		t.Fatalf("Wakes after waking a done proc = %d, want %d (no spurious wakes counted)", got, wakes)
	}
	e.Run(0)
	if got := e.Wakes(); got != wakes {
		t.Fatalf("Wakes after draining = %d, want %d", got, wakes)
	}
}

func TestDoubleWakeSecondActivationDropped(t *testing.T) {
	// Both wakes are issued while the target is alive and suspended,
	// but the first activation lets the target finish — the second
	// must be dropped at drain time without counting a wake.
	e := New(1)
	defer e.Stop()
	var target *Proc
	target = e.Go("target", func(p *Proc) {
		p.Suspend()
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(1 * Nanosecond)
		target.Wake()
		target.Wake()
	})
	e.Run(0)
	if !target.Done() {
		t.Fatal("target did not finish")
	}
	// Wakes: the two initial activations, the waker's timer wake, and
	// exactly ONE wake for the double-woken target.
	if got := e.Wakes(); got != 4 {
		t.Fatalf("Wakes = %d, want 4 (second activation of a finished proc must not count)", got)
	}
}

func TestScheduleAfterStopIsNoOp(t *testing.T) {
	e := New(1)
	e.Stop()
	e.Schedule(1*Nanosecond, func() { t.Fatal("event after Stop fired") })
	e.ScheduleAt(1*Nanosecond, func() { t.Fatal("event after Stop fired") })
	if e.Pending() != 0 {
		t.Fatalf("Pending after post-Stop scheduling = %d, want 0", e.Pending())
	}
	e.Run(0)
}

// TestWakeAfterStopIsNoOp: after Stop, Wake enqueues nothing and does
// not panic, whatever the unwound process was parked on, blocked waits
// included.
func TestWakeAfterStopIsNoOp(t *testing.T) {
	e := New(1)
	c := NewCredits(e, 0)
	procs := []*Proc{
		e.Go("sleeper", func(p *Proc) { p.Sleep(10 * Nanosecond) }),
		e.Go("waiter", func(p *Proc) { c.Acquire(p, 1) }),
		e.Go("idle", func(p *Proc) { p.Suspend() }),
	}
	e.Run(5 * Nanosecond)
	e.Stop()
	for _, p := range procs {
		p.Wake()
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after post-Stop wakes = %d, want 0", e.Pending())
	}
}

func TestEventsCounter(t *testing.T) {
	e := New(1)
	defer e.Stop()
	if e.Events() != 0 {
		t.Fatalf("fresh engine Events = %d, want 0", e.Events())
	}
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i)*Nanosecond, func() {})
	}
	e.Run(0)
	if e.Events() != 5 {
		t.Fatalf("Events after 5 timers = %d, want 5", e.Events())
	}
	n := 0
	e.Go("spin", func(p *Proc) {
		for ; n < 3; n++ {
			p.Sleep(0)
		}
	})
	e.Run(0)
	// Activations count too: initial activation + 3 zero-sleeps.
	if e.Events() != 5+4 {
		t.Fatalf("Events after park/wake chain = %d, want 9", e.Events())
	}
}

// TestWakeDuringSleepPanics: only a Sleep's own timer may resume the
// process. A Wake meanwhile would resume it early and leave the timer
// to resume it again from whatever it parks on next, so it panics,
// naming the process.
func TestWakeDuringSleepPanics(t *testing.T) {
	e := New(1)
	defer e.Stop()
	sleeper := e.Go("sleeper", func(p *Proc) { p.Sleep(10 * Nanosecond) })
	e.Schedule(5*Nanosecond, func() { sleeper.Wake() })
	msg := mustPanic(t, func() { e.Run(0) })
	if !strings.Contains(msg, "sleeper") || !strings.Contains(msg, "Sleep") {
		t.Fatalf("panic %q does not name the sleeping process", msg)
	}
}

// TestWakeDuringStagesPanics: a process blocked while stages run on its
// behalf is resumed only by the last stage; a Wake panics, naming it.
func TestWakeDuringStagesPanics(t *testing.T) {
	e := New(1)
	defer e.Stop()
	poster := e.Go("poster", func(p *Proc) {
		stage := func() {
			p.Resume()
		}
		if !p.SleepStage(10*Nanosecond, stage) {
			p.Block()
		}
	})
	e.Schedule(5*Nanosecond, func() { poster.Wake() })
	msg := mustPanic(t, func() { e.Run(0) })
	if !strings.Contains(msg, "poster") || !strings.Contains(msg, "stages") {
		t.Fatalf("panic %q does not name the blocked process", msg)
	}
}

// TestMutexWaiterWokenWithoutHandoffPanics: a Mutex waiter resumed by a
// stray Wake rather than Unlock's handoff would run inside the lock
// alongside its holder, so it panics, naming the waiter.
func TestMutexWaiterWokenWithoutHandoffPanics(t *testing.T) {
	e := New(1)
	defer e.Stop()
	m := NewMutex(e)
	e.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(10 * Nanosecond)
		m.Unlock()
	})
	waiter := e.Go("waiter", func(p *Proc) {
		m.Lock(p)
		m.Unlock()
	})
	e.Schedule(5*Nanosecond, func() { waiter.Wake() })
	msg := mustPanic(t, func() { e.Run(0) })
	if !strings.Contains(msg, "waiter") || !strings.Contains(msg, "handed") {
		t.Fatalf("panic %q does not name the waiter", msg)
	}
}

// TestCreditWaiterWokenWithoutGrantPanics: a credit waiter resumed by a
// stray Wake rather than a grant would post without a credit, so it
// panics, naming the waiter.
func TestCreditWaiterWokenWithoutGrantPanics(t *testing.T) {
	e := New(1)
	defer e.Stop()
	c := NewCredits(e, 1)
	e.Go("holder", func(p *Proc) {
		c.Acquire(p, 1)
		p.Sleep(10 * Nanosecond)
		c.Release(1)
	})
	waiter := e.Go("waiter", func(p *Proc) {
		c.Acquire(p, 1)
		c.Release(1)
	})
	e.Schedule(5*Nanosecond, func() { waiter.Wake() })
	msg := mustPanic(t, func() { e.Run(0) })
	if !strings.Contains(msg, "waiter") || !strings.Contains(msg, "grant") {
		t.Fatalf("panic %q does not name the waiter", msg)
	}
}

// TestCreditStageWokenWithoutGrantPanics: the staged form of the same
// failure. A wake arranged before AcquireStage's park, still queued when
// it arms, cannot be a grant, so it panics, naming the waiter, instead
// of running on as if granted.
func TestCreditStageWokenWithoutGrantPanics(t *testing.T) {
	e := New(1)
	defer e.Stop()
	c := NewCredits(e, 0)
	e.Go("waiter", func(p *Proc) {
		p.Wake() // a wake arranged before the park
		if !c.AcquireStage(p, 1, p.Resume) {
			p.Block()
		}
	})
	msg := mustPanic(t, func() { e.Run(0) })
	if !strings.Contains(msg, "waiter") || !strings.Contains(msg, "grant") {
		t.Fatalf("panic %q does not name the waiter", msg)
	}
}

// TestStrayWakeAfterCreditGrantPanics: a Wake queued in the same event
// as a credit grant, before the waiter runs, would leave the waiter a
// second run-queue entry, and its next Sleep would return on that entry
// instead of its timer. The waiter is blocked until it runs, so the
// Wake panics, naming it.
func TestStrayWakeAfterCreditGrantPanics(t *testing.T) {
	e := New(1)
	defer e.Stop()
	c := NewCredits(e, 0)
	slept := Time(-1)
	waiter := e.Go("waiter", func(p *Proc) {
		c.Acquire(p, 1)
		p.Sleep(100 * Nanosecond)
		slept = p.Now()
	})
	e.Schedule(10*Nanosecond, func() {
		c.Release(1)
		waiter.Wake()
	})
	mustPanicNamingSleeper(t, e, "waiter", &slept)
}

// TestStrayWakeAfterMutexHandoffPanics: the same stray Wake, queued
// right after Unlock hands the mutex to its waiter.
func TestStrayWakeAfterMutexHandoffPanics(t *testing.T) {
	e := New(1)
	defer e.Stop()
	m := NewMutex(e)
	slept := Time(-1)
	var waiter *Proc
	e.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(10 * Nanosecond)
		m.Unlock()
		waiter.Wake()
	})
	waiter = e.Go("waiter", func(p *Proc) {
		m.Lock(p)
		p.Sleep(100 * Nanosecond)
		slept = p.Now()
		m.Unlock()
	})
	mustPanicNamingSleeper(t, e, "waiter", &slept)
}

// TestStrayWakeBeforeBlockingWaitPanics: a Wake of a process still
// queued when the process begins a Sleep, Lock or Acquire was not
// arranged by that wait. Taken as its wake, it would end the wait early
// (without the timer, the hand-off or the grant), and the real wake
// would later resume the process from whatever it parks on next. So
// the wait panics, naming the process, whether the stray entry is at
// the run-queue head or queued behind another live process's.
func TestStrayWakeBeforeBlockingWaitPanics(t *testing.T) {
	waits := []struct {
		name, word string
		wait       func(e *Engine) func(p *Proc)
	}{
		{"Sleep(100ns)", "Sleep", func(*Engine) func(p *Proc) {
			return func(p *Proc) { p.Sleep(100 * Nanosecond) }
		}},
		{"Sleep(0)", "Sleep", func(*Engine) func(p *Proc) {
			return func(p *Proc) { p.Sleep(0) }
		}},
		{"Mutex.Lock", "handed", func(e *Engine) func(p *Proc) {
			m := NewMutex(e)
			e.Go("holder", func(h *Proc) {
				m.Lock(h)
				h.Sleep(10 * Nanosecond)
				m.Unlock()
			})
			return func(p *Proc) {
				m.Lock(p)
				m.Unlock()
			}
		}},
		{"Credits.Acquire", "grant", func(e *Engine) func(p *Proc) {
			c := NewCredits(e, 0)
			e.Schedule(10*Nanosecond, func() { c.Release(1) })
			return func(p *Proc) { c.Acquire(p, 1) }
		}},
	}
	for _, w := range waits {
		for _, behind := range []bool{false, true} {
			name := fmt.Sprintf("%s/behind-live=%v", w.name, behind)
			t.Run(name, func(t *testing.T) {
				e := New(1)
				defer e.Stop()
				wait := w.wait(e)
				other := e.Go("other", func(p *Proc) { p.Suspend() })
				after := Time(-1)
				e.Schedule(5*Nanosecond, func() {
					e.Go("waiter", func(p *Proc) {
						if behind {
							other.Wake() // a live process due before the stray entry
						}
						p.Wake() // the stray
						wait(p)
						after = p.Now()
						p.Sleep(1000 * Nanosecond)
					})
				})
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("no panic: the wait begun at 5ns returned at %v", after)
					}
					if msg, _ := r.(string); !strings.Contains(msg, "waiter") || !strings.Contains(msg, w.word) {
						t.Fatalf("panic %q does not name the waiter and %q", msg, w.word)
					}
				}()
				e.Run(0)
			})
		}
	}
}

// TestResumeOrAwaitOutsideStagesPanics: Resume and Await end staged
// work, so called on a process that is blocked without a stage — in
// Sleep, or queued on a Mutex — they panic, naming it, instead of
// switching into it before its timer or hand-off.
func TestResumeOrAwaitOutsideStagesPanics(t *testing.T) {
	for _, end := range []string{"Resume", "Await"} {
		for _, wait := range []string{"Sleep", "Mutex.Lock"} {
			t.Run(end+"/"+wait, func(t *testing.T) {
				e := New(1)
				defer e.Stop()
				m := NewMutex(e)
				e.Go("holder", func(p *Proc) {
					m.Lock(p)
					p.Sleep(100 * Nanosecond)
					m.Unlock()
				})
				blocked := e.Go("blocked", func(p *Proc) {
					if wait == "Sleep" {
						p.Sleep(100 * Nanosecond)
						return
					}
					m.Lock(p)
					m.Unlock()
				})
				fn := blocked.Resume
				if end == "Await" {
					fn = blocked.Await
				}
				e.Schedule(5*Nanosecond, fn)
				msg := mustPanic(t, func() { e.Run(0) })
				if !strings.Contains(msg, "blocked") || !strings.Contains(msg, "stages") {
					t.Fatalf("panic %q does not name the process", msg)
				}
			})
		}
	}
}

// mustPanicNamingSleeper runs e and fails unless it panics naming the
// process; without a panic it reports when that process's
// Sleep(100ns), begun at 10ns, returned.
func mustPanicNamingSleeper(t *testing.T, e *Engine, name string, slept *Time) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic: %s's Sleep(100ns) from 10ns returned at %v", name, *slept)
		}
		if msg, _ := r.(string); !strings.Contains(msg, name) {
			t.Fatalf("panic %q does not name %s", msg, name)
		}
	}()
	e.Run(0)
}

// TestStagedWorkCountsAsProcess: a lock-and-hold run as stages on a
// blocked process draws the same (at, seq) and counts the same events,
// parks and wakes as the process doing it itself, contended or not.
func TestStagedWorkCountsAsProcess(t *testing.T) {
	run := func(staged bool) (out []string, events, parks, wakes uint64) {
		e := New(1)
		defer e.Stop()
		m := NewMutex(e)
		for k := 0; k < 3; k++ {
			e.Go("worker", func(p *Proc) {
				for i := 0; i < 3; i++ {
					hold := Time(k) * Nanosecond // worker 0 holds for zero
					if staged {
						step := 0
						var stage func()
						advance := func() bool {
							for {
								switch step {
								case 0:
									step = 1
									if !m.LockStage(p, stage) {
										return false
									}
								case 1:
									step = 2
									if !p.SleepStage(hold, stage) {
										return false
									}
								default:
									m.Unlock()
									return true
								}
							}
						}
						stage = func() {
							if advance() {
								p.Resume()
							}
						}
						if !advance() {
							p.Block()
						}
					} else {
						m.Lock(p)
						p.Sleep(hold)
						m.Unlock()
					}
					out = append(out, fmt.Sprintf("w%d#%d@%v", k, i, p.Now()))
				}
			})
		}
		e.Run(0)
		return out, e.Events(), e.Parks(), e.Wakes()
	}
	o1, ev1, pk1, wk1 := run(false)
	o2, ev2, pk2, wk2 := run(true)
	if fmt.Sprint(o1) != fmt.Sprint(o2) || ev1 != ev2 || pk1 != pk2 || wk1 != wk2 {
		t.Fatalf("staged %v (events %d, parks %d, wakes %d) vs process %v (events %d, parks %d, wakes %d)",
			o2, ev2, pk2, wk2, o1, ev1, pk1, wk1)
	}
}

// TestAwaitMatchesResumeThenSuspend: a stage that ends staged work with
// Await leaves the process where Resume followed at once by Suspend
// would: the same resume times and the same Events, Parks, Wakes and
// Pending, with one switch fewer per round. Variants: the wake a timer
// (one switch saved per round), a stale run-queue entry of a finished
// process ahead of the park (dropped uncounted by both), and the
// process's own entry already queued (the self-wake short-circuit: it
// runs on at once, and both switch into it once).
func TestAwaitMatchesResumeThenSuspend(t *testing.T) {
	type outcome struct {
		out                  string
		events, parks, wakes uint64
		pending              int
	}
	const rounds = 3
	run := func(await, stale, self bool) (outcome, uint64) {
		e := New(1)
		defer e.Stop()
		q := e.Go("q", func(p *Proc) { p.Suspend() })
		var out []string
		e.Go("p", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				finish := func() {
					if self {
						e.enqueueRun(p)
					} else {
						e.Schedule(10*Nanosecond, p.Wake)
					}
					if await {
						p.Await()
					} else {
						p.Resume()
					}
				}
				stage2 := func() {
					finish()
				}
				stage1 := func() {
					if i > 0 || !stale {
						finish()
						return
					}
					// q's first entry runs (and q finishes) before
					// stage2; its second is stale when stage2 parks p.
					q.Wake()
					if p.SleepStage(0, stage2) {
						t.Error("SleepStage(0) behind q's wake ran inline")
					}
					q.Wake()
				}
				if !p.SleepStage(Time(i+1)*Nanosecond, stage1) {
					p.Block()
				}
				if !await {
					p.Suspend()
				}
				out = append(out, fmt.Sprintf("#%d@%v", i, p.Now()))
			}
		})
		e.Run(0)
		return outcome{fmt.Sprint(out), e.Events(), e.Parks(), e.Wakes(), e.Pending()}, e.Switches()
	}
	for _, v := range []struct {
		name        string
		stale, self bool
		saved       uint64
	}{{"timer", false, false, rounds}, {"stale", true, false, rounds}, {"self", false, true, 0}} {
		ref, refSw := run(false, v.stale, v.self)
		got, sw := run(true, v.stale, v.self)
		if got != ref {
			t.Errorf("%s: Await %+v, Resume then Suspend %+v", v.name, got, ref)
		}
		if sw+v.saved != refSw {
			t.Errorf("%s: Await switched %d times, Resume then Suspend %d: want %d fewer", v.name, sw, refSw, v.saved)
		}
	}
}

// TestAwaitOutsideStagesPanics: only a stage may end staged work, so
// Await of a process that is not blocked in stages panics, naming it.
func TestAwaitOutsideStagesPanics(t *testing.T) {
	e := New(1)
	defer e.Stop()
	idle := e.Go("idle", func(p *Proc) { p.Suspend() })
	e.Schedule(5*Nanosecond, idle.Await)
	msg := mustPanic(t, func() { e.Run(0) })
	if !strings.Contains(msg, "idle") || !strings.Contains(msg, "stages") {
		t.Fatalf("panic %q does not name the process", msg)
	}
}
