package sim

import "testing"

// Kernel microbenchmarks for the event-loop hot path. Each benchmark
// executes exactly one kernel "event" per b.N iteration — a timer
// firing, a park/wake baton pass, a mutex handoff — so ns/op is
// directly the kernel's per-event cost and allocs/op is the per-event
// allocation rate the refactor targets; BenchmarkSpawnStop is the
// exception, one iteration being a whole point's process set-up and
// teardown. CHANGES.md records pre/post pairs of these numbers under
// the change that measured them; rerun with
//
//	go test ./internal/sim -run '^$' -bench . -benchmem
//
// to reproduce them.

// BenchmarkScheduleChurn measures the raw event-queue path: a window
// of self-rescheduling timer callbacks keeps ~256 events outstanding,
// so every fire pays one push and one pop against a loaded queue.
func BenchmarkScheduleChurn(b *testing.B) {
	e := New(1)
	defer e.Stop()
	const window = 256
	seeds := window
	if seeds > b.N {
		seeds = b.N
	}
	reschedules := b.N - seeds
	fired := 0
	fns := make([]func(), seeds)
	for i := range fns {
		d := Time(1+i*37%199) * Nanosecond
		fns[i] = func() {
			fired++
			if fired <= reschedules {
				e.Schedule(d, fns[i])
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range fns {
		e.Schedule(Time(i%13)*Nanosecond, fns[i])
	}
	e.Run(0)
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// BenchmarkServerBacklog measures the lane path under the RNIC's load
// shape: one saturated Server keeps ~512 jobs queued (a requester
// pipeline's backlog), and each departure resubmits a job and puts one
// entry on a Line that holds ~256 in flight (the wire). A departure
// and a line arrival are one event each.
func BenchmarkServerBacklog(b *testing.B) {
	e := New(1)
	defer e.Stop()
	const service, backlog = 2 * Nanosecond, 512
	s, l := NewServer(e), NewLine(e, 256*service)
	left, fired := b.N, 0 // left: events still to create
	arrive := func() { fired++ }
	var depart func()
	depart = func() {
		fired++
		if left > 0 {
			left--
			s.Submit(service, depart)
		}
		if left > 0 {
			left--
			l.Schedule(arrive)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < backlog && left > 0; i++ {
		left--
		s.Submit(service, depart)
	}
	e.Run(0)
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// BenchmarkParkWakeBaton measures the same-timestamp park/wake baton:
// each iteration is one Sleep(0) — the process arranges its own
// immediate wake and hands the baton back. This is the path every CQE
// delivery and credit grant rides through Proc.Wake.
func BenchmarkParkWakeBaton(b *testing.B) {
	e := New(1)
	n := 0
	e.Go("spinner", func(p *Proc) {
		for n < b.N {
			n++
			p.Sleep(0)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(0)
	b.StopTimer()
	e.Stop()
	if n != b.N {
		b.Fatalf("parked %d times, want %d", n, b.N)
	}
}

// BenchmarkParkWakeTimer is the park/wake pair through the event
// queue: each iteration is one Sleep(1ns), so the activation travels
// the schedule-then-fire path rather than the same-timestamp one.
func BenchmarkParkWakeTimer(b *testing.B) {
	e := New(1)
	n := 0
	e.Go("sleeper", func(p *Proc) {
		for n < b.N {
			n++
			p.Sleep(1 * Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(0)
	b.StopTimer()
	e.Stop()
	if n != b.N {
		b.Fatalf("slept %d times, want %d", n, b.N)
	}
}

// BenchmarkMutexHandoff measures FCFS lock handoffs under contention:
// 8 processes hammer one mutex, so nearly every Unlock wakes the next
// waiter directly — the doorbell-spinlock pattern from the verbs
// layer.
func BenchmarkMutexHandoff(b *testing.B) {
	e := New(1)
	m := NewMutex(e)
	const procs = 8
	total := 0
	for i := 0; i < procs; i++ {
		e.Go("locker", func(p *Proc) {
			for {
				m.Lock(p)
				if total >= b.N {
					m.Unlock() // let the queued waiters drain and exit too
					return
				}
				total++
				p.Sleep(0)
				m.Unlock()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(0)
	b.StopTimer()
	e.Stop()
	if total < b.N {
		b.Fatalf("performed %d handoffs, want at least %d", total, b.N)
	}
}

// BenchmarkWaitQueuePingPong measures condition-style signalling: two
// processes bat the baton back and forth through two wait queues, one
// Signal+Wait round trip per iteration.
func BenchmarkWaitQueuePingPong(b *testing.B) {
	e := New(1)
	qa, qb := NewWaitQueue(e), NewWaitQueue(e)
	rounds := 0
	e.Go("ping", func(p *Proc) {
		for rounds < b.N {
			rounds++
			qb.Signal()
			qa.Wait(p)
		}
		qb.Signal() // release pong
	})
	e.Go("pong", func(p *Proc) {
		for rounds < b.N {
			qa.Signal()
			qb.Wait(p)
		}
		qa.Signal() // release ping if still parked
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(0)
	b.StopTimer()
	e.Stop()
}

// BenchmarkSpawnStop measures what a process costs outside the steady
// state: each iteration spawns 864 processes (one e2ebench ht_write
// point's worth), runs each to its first park, and Stops the engine,
// which unwinds them one by one.
func BenchmarkSpawnStop(b *testing.B) {
	const procs = 864
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(1)
		for j := 0; j < procs; j++ {
			e.Go("parked", func(p *Proc) { p.Suspend() })
		}
		e.Run(0)
		e.Stop()
	}
}
