package sim

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"
)

func TestProcSleep(t *testing.T) {
	e := New(1)
	defer e.Stop()
	var at []Time
	e.Go("p", func(p *Proc) {
		at = append(at, p.Now())
		p.Sleep(100 * Nanosecond)
		at = append(at, p.Now())
		p.Sleep(50 * Nanosecond)
		at = append(at, p.Now())
	})
	e.Run(0)
	want := []Time{0, 100, 150}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("wake times = %v, want %v", at, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	e := New(1)
	defer e.Stop()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(10 * Nanosecond)
		order = append(order, "a1")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(5 * Nanosecond)
		order = append(order, "b1")
	})
	e.Run(0)
	want := []string{"a0", "b0", "b1", "a1"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcDoneAndCount(t *testing.T) {
	e := New(1)
	defer e.Stop()
	p := e.Go("p", func(p *Proc) { p.Sleep(1 * Nanosecond) })
	if e.Procs() != 1 {
		t.Fatalf("Procs = %d, want 1", e.Procs())
	}
	e.Run(0)
	if !p.Done() {
		t.Fatal("process not done after run")
	}
	if e.Procs() != 0 {
		t.Fatalf("Procs = %d, want 0 after completion", e.Procs())
	}
}

func TestSuspendWake(t *testing.T) {
	e := New(1)
	defer e.Stop()
	var woke Time
	p := e.Go("sleeper", func(p *Proc) {
		p.Suspend()
		woke = p.Now()
	})
	e.Go("waker", func(q *Proc) {
		q.Sleep(40 * Nanosecond)
		p.Wake()
	})
	e.Run(0)
	if woke != 40 {
		t.Fatalf("woke at %v, want 40", woke)
	}
}

func TestWakeAfterDoneIsIgnored(t *testing.T) {
	e := New(1)
	defer e.Stop()
	p := e.Go("quick", func(p *Proc) {})
	e.Go("late", func(q *Proc) {
		q.Sleep(10 * Nanosecond)
		p.Wake() // must not deadlock
	})
	e.Run(0)
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want 10", e.Now())
	}
}

func TestStopUnwindsParkedProcs(t *testing.T) {
	e := New(1)
	e.Go("stuck", func(p *Proc) { p.Suspend() })
	e.Run(0)
	e.Stop() // must not hang or panic; the goroutine unwinds
}

// TestStopSerializesUnwind pins the teardown contract: deferred
// cleanups in process bodies often write state shared by many
// coroutines (core.Ctx.EndOp bumps per-thread stats), so Stop must
// unwind parked processes one at a time. Waking them all at once made
// these lock-free defers run concurrently — a data race this test
// catches under -race, and a lost-update miscount even without it.
func TestStopSerializesUnwind(t *testing.T) {
	e := New(1)
	const n = 64
	shared := 0
	for i := 0; i < n; i++ {
		e.Go("worker", func(p *Proc) {
			defer func() { shared++ }()
			p.Suspend() // parked here until Stop unwinds us
		})
	}
	e.Run(0)
	e.Stop()
	if shared != n {
		t.Fatalf("after Stop, shared = %d, want %d (unwind defers lost updates)", shared, n)
	}
}

func TestProcName(t *testing.T) {
	e := New(1)
	defer e.Stop()
	p := e.Go("worker-3", func(p *Proc) {})
	if p.Name() != "worker-3" {
		t.Fatalf("Name = %q", p.Name())
	}
	if p.Engine() != e {
		t.Fatal("Engine() mismatch")
	}
	e.Run(0)
}

// TestBodyPanicReachesRunCaller: a panic in a process body surfaces on
// the goroutine that called Run, with the body's own panic value, and
// leaves the engine in a state Stop can still tear down — every other
// parked process unwinds, its deferred cleanup running exactly once
// and never overlapping another's.
func TestBodyPanicReachesRunCaller(t *testing.T) {
	e := New(1)
	const parked = 16
	cleanups, inCleanup := 0, false
	for i := 0; i < parked; i++ {
		e.Go("parked", func(p *Proc) {
			defer func() {
				if inCleanup {
					t.Error("two unwind cleanups overlap")
				}
				inCleanup = true
				cleanups++
				inCleanup = false
			}()
			p.Suspend()
		})
	}
	boom := errors.New("boom in a process body")
	e.Go("faulty", func(p *Proc) {
		p.Sleep(10 * Nanosecond)
		panic(boom)
	})
	got := func() (v any) {
		defer func() { v = recover() }()
		e.Run(0)
		return nil
	}()
	if got != boom {
		t.Fatalf("Run's caller recovered %v, want the body's own panic value %v", got, boom)
	}
	if cleanups != 0 {
		t.Fatalf("%d parked processes unwound before Stop", cleanups)
	}
	e.Stop()
	if cleanups != parked {
		t.Fatalf("after Stop, %d cleanups ran, want %d", cleanups, parked)
	}
}

// TestStopBeforeFirstActivation: a process spawned but never activated
// is discarded by Stop without its body (or anything it defers) ever
// running.
func TestStopBeforeFirstActivation(t *testing.T) {
	e := New(1)
	ran := false
	p := e.Go("never", func(p *Proc) { ran = true })
	e.Stop()
	e.Run(0)
	if ran || p.Done() {
		t.Fatalf("body ran = %v, Done = %v after Stop before the first activation; want neither", ran, p.Done())
	}
}

// TestStopLeavesNoGoroutines: every process is backed by a runtime
// goroutine, and Stop must retire all of them whatever state they are
// in — finished, parked on a timer, suspended, or spawned and never
// activated.
func TestStopLeavesNoGoroutines(t *testing.T) {
	before := procGoroutines()
	e := New(1)
	for i := 0; i < 32; i++ {
		e.Go("finishes", func(p *Proc) { p.Sleep(1 * Nanosecond) })
		e.Go("sleeps", func(p *Proc) { p.Sleep(Second) })
		e.Go("suspends", func(p *Proc) { p.Suspend() })
	}
	e.Run(100 * Nanosecond)
	for i := 0; i < 32; i++ {
		e.Go("never-activated", func(p *Proc) {})
	}
	if got := procGoroutines(); got <= before {
		t.Fatalf("%d process goroutines with 96 live processes, %d before: this test no longer measures anything", got, before)
	}
	e.Stop()
	if got := procGoroutines(); got != before {
		t.Fatalf("%d process goroutines after Stop, want the pre-spawn %d", got, before)
	}
}

// procGoroutines counts the goroutines that back processes: those
// Engine.Go's iter.Pull created. Counting only these, rather than
// runtime.NumGoroutine, keeps goroutines that earlier tests or the test
// runner leave exiting in the background out of the count.
func procGoroutines() int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("\ncreated by iter.Pull["))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestGoFromInsideProcess: a running process may spawn another. The
// child starts at the spawning timestamp, behind whatever was already
// queued there, and the parent keeps running until it parks.
func TestGoFromInsideProcess(t *testing.T) {
	e := New(1)
	defer e.Stop()
	var order []string
	e.Go("parent", func(p *Proc) {
		p.Sleep(5 * Nanosecond)
		e.Schedule(0, func() { order = append(order, "queued-first") })
		e.Go("child", func(c *Proc) {
			order = append(order, "child@"+c.Now().String())
			c.Sleep(1 * Nanosecond)
			order = append(order, "child-done")
		})
		order = append(order, "parent-continues")
		p.Sleep(0)
		order = append(order, "parent-after-child")
	})
	e.Run(0)
	want := []string{"parent-continues", "queued-first", "child@5ns", "parent-after-child", "child-done"}
	if !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if e.Procs() != 0 {
		t.Fatalf("Procs = %d after both finished, want 0", e.Procs())
	}
}

// TestFinishWhileOthersParked: a process that returns while others
// stay parked drops out of the live count at once, the parked ones are
// still wakeable afterwards, and Stop unwinds only what is left.
func TestFinishWhileOthersParked(t *testing.T) {
	e := New(1)
	unwound := 0
	var parked []*Proc
	for i := 0; i < 3; i++ {
		parked = append(parked, e.Go("parked", func(p *Proc) {
			defer func() { unwound++ }()
			p.Suspend()
		}))
	}
	short := e.Go("short", func(p *Proc) { p.Sleep(2 * Nanosecond) })
	e.Run(0)
	if !short.Done() || e.Procs() != 3 {
		t.Fatalf("short.Done = %v, Procs = %d; want true, 3", short.Done(), e.Procs())
	}
	e.Schedule(0, parked[0].Wake)
	e.Run(0)
	if !parked[0].Done() || unwound != 1 || e.Procs() != 2 {
		t.Fatalf("after waking one: Done = %v, unwound = %d, Procs = %d; want true, 1, 2", parked[0].Done(), unwound, e.Procs())
	}
	e.Stop()
	if unwound != 3 {
		t.Fatalf("after Stop, %d deferred cleanups ran in total, want 3 (each exactly once)", unwound)
	}
}
