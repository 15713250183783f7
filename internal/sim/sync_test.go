package sim

import (
	"testing"
	"testing/quick"
)

func TestMutexMutualExclusion(t *testing.T) {
	e := New(1)
	defer e.Stop()
	m := NewMutex(e)
	inside := 0
	maxInside := 0
	for i := 0; i < 8; i++ {
		e.Go("p", func(p *Proc) {
			for j := 0; j < 5; j++ {
				m.Lock(p)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Sleep(10 * Nanosecond)
				inside--
				m.Unlock()
				p.Sleep(1 * Nanosecond)
			}
		})
	}
	e.Run(0)
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxInside)
	}
	if m.held {
		t.Fatal("mutex still held at end")
	}
}

func TestMutexFCFS(t *testing.T) {
	e := New(1)
	defer e.Stop()
	m := NewMutex(e)
	var order []int
	// Holder takes the lock first; contenders arrive in a known order.
	e.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(100 * Nanosecond)
		m.Unlock()
	})
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) {
			p.Sleep(Time(i + 1)) // stagger arrivals: 1,2,3,4,5
			m.Lock(p)
			order = append(order, i)
			m.Unlock()
		})
	}
	e.Run(0)
	for i := range order {
		if order[i] != i {
			t.Fatalf("FCFS violated: %v", order)
		}
	}
}

func TestMutexWaitersAndStats(t *testing.T) {
	e := New(1)
	defer e.Stop()
	m := NewMutex(e)
	e.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(100 * Nanosecond)
		if m.Waiters() != 2 {
			t.Errorf("Waiters = %d, want 2", m.Waiters())
		}
		m.Unlock()
	})
	for i := 0; i < 2; i++ {
		e.Go("w", func(p *Proc) {
			p.Sleep(10 * Nanosecond)
			m.Lock(p)
			m.Unlock()
		})
	}
	e.Run(0)
	if m.Acquisitions != 3 || m.Contended != 2 {
		t.Fatalf("Acquisitions=%d Contended=%d, want 3 and 2", m.Acquisitions, m.Contended)
	}
}

func TestMutexUnlockUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := NewMutex(New(1))
	m.Unlock()
}

func TestCreditsBasic(t *testing.T) {
	e := New(1)
	defer e.Stop()
	c := NewCredits(e, 4)
	var acquiredAt Time
	e.Go("p", func(p *Proc) {
		c.Acquire(p, 3) // immediate
		c.Acquire(p, 3) // blocks: only 1 left
		acquiredAt = p.Now()
	})
	e.Go("refill", func(p *Proc) {
		p.Sleep(50 * Nanosecond)
		c.Release(2)
	})
	e.Run(0)
	if acquiredAt != 50 {
		t.Fatalf("second acquire at %v, want 50", acquiredAt)
	}
	if c.Available() != 0 {
		t.Fatalf("Available = %d, want 0", c.Available())
	}
}

func TestCreditsFIFONoStarvation(t *testing.T) {
	e := New(1)
	defer e.Stop()
	c := NewCredits(e, 0)
	var order []string
	e.Go("big", func(p *Proc) {
		c.Acquire(p, 5)
		order = append(order, "big")
	})
	e.Go("small", func(p *Proc) {
		p.Sleep(1 * Nanosecond)
		c.Acquire(p, 1)
		order = append(order, "small")
	})
	e.Go("drip", func(p *Proc) {
		for i := 0; i < 6; i++ {
			p.Sleep(10 * Nanosecond)
			c.Release(1)
		}
	})
	e.Run(0)
	if len(order) != 2 || order[0] != "big" || order[1] != "small" {
		t.Fatalf("order = %v, want [big small] (FIFO)", order)
	}
}

func TestCreditsNegativeAdd(t *testing.T) {
	e := New(1)
	defer e.Stop()
	c := NewCredits(e, 8)
	c.Add(-12)
	if c.Available() != -4 {
		t.Fatalf("Available = %d, want -4", c.Available())
	}
	var got Time = -1 * Nanosecond
	e.Go("p", func(p *Proc) {
		c.Acquire(p, 1)
		got = p.Now()
	})
	e.Go("refill", func(p *Proc) {
		p.Sleep(5 * Nanosecond)
		c.Add(6) // brings balance to 2
	})
	e.Run(0)
	if got != 5 {
		t.Fatalf("acquire completed at %v, want 5", got)
	}
}

// Property: credits are conserved — after any sequence of balanced
// acquire/release pairs, the final balance equals the initial one.
func TestCreditsConservationProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		e := New(3)
		defer e.Stop()
		const initial = 64
		c := NewCredits(e, initial)
		for _, s := range sizes {
			n := int64(s%8) + 1
			e.Go("p", func(p *Proc) {
				c.Acquire(p, n)
				p.Sleep(Time(n))
				c.Release(n)
			})
		}
		e.Run(0)
		return c.Available() == initial && c.Waiters() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitQueueSignalBroadcast(t *testing.T) {
	e := New(1)
	defer e.Stop()
	w := NewWaitQueue(e)
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("p", func(p *Proc) {
			w.Wait(p)
			woken++
		})
	}
	e.Go("ctl", func(p *Proc) {
		p.Sleep(10 * Nanosecond)
		if w.Len() != 3 {
			t.Errorf("Len = %d, want 3", w.Len())
		}
		if !w.Signal() {
			t.Error("Signal returned false with waiters")
		}
		p.Sleep(10 * Nanosecond)
		w.Broadcast()
	})
	e.Run(0)
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
	if w.Signal() {
		t.Fatal("Signal on empty queue returned true")
	}
}

func TestServerFIFOAndUtilization(t *testing.T) {
	e := New(1)
	s := NewServer(e)
	var done []Time
	e.Schedule(0, func() {
		s.Submit(10*Nanosecond, func() { done = append(done, e.Now()) })
		s.Submit(10*Nanosecond, func() { done = append(done, e.Now()) })
		s.Submit(5*Nanosecond, func() { done = append(done, e.Now()) })
	})
	e.Run(0)
	want := []Time{10, 20, 25}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("departures = %v, want %v", done, want)
		}
	}
	if s.Jobs != 3 || s.Busy != 25 {
		t.Fatalf("Jobs=%d Busy=%v, want 3 and 25", s.Jobs, s.Busy)
	}
}

func TestServerIdleGap(t *testing.T) {
	e := New(1)
	s := NewServer(e)
	var second Time
	e.Schedule(0, func() { s.Submit(10*Nanosecond, nil) })
	e.Schedule(100*Nanosecond, func() {
		s.Submit(7*Nanosecond, func() { second = e.Now() })
	})
	e.Run(0)
	if second != 107 {
		t.Fatalf("second departure = %v, want 107", second)
	}
}
