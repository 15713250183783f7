package sim

import (
	"slices"
	"testing"
)

func TestPendingCount(t *testing.T) {
	e := New(1)
	if e.Pending() != 0 {
		t.Fatal("fresh engine has pending events")
	}
	e.Schedule(10*Nanosecond, func() {})
	e.Schedule(20*Nanosecond, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Run(0)
	if e.Pending() != 0 {
		t.Fatal("events left after run")
	}
}

func TestStopIdempotentAndDropsEvents(t *testing.T) {
	e := New(1)
	fired := false
	e.Schedule(5*Nanosecond, func() { fired = true })
	e.Stop()
	e.Stop() // must not panic
	e.Run(0)
	if fired {
		t.Fatal("event fired after Stop")
	}
	// Scheduling after Stop is a no-op.
	e.Schedule(1*Nanosecond, func() { fired = true })
	e.Run(0)
	if fired {
		t.Fatal("post-Stop schedule fired")
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 50; i++ {
		if a.Rand().Uint64() != b.Rand().Uint64() {
			t.Fatal("same-seed engines produce different randomness")
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.Schedule(1*Nanosecond, recurse)
		}
	}
	e.Schedule(0, recurse)
	e.Run(0)
	if depth != 100 {
		t.Fatalf("depth = %d", depth)
	}
	if e.Now() != 99 {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestManyProcsInterleaveFairly(t *testing.T) {
	e := New(1)
	defer e.Stop()
	const n = 200
	finished := 0
	for i := 0; i < n; i++ {
		e.Go("p", func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Sleep(Time(1 + j))
			}
			finished++
		})
	}
	e.Run(0)
	if finished != n {
		t.Fatalf("finished = %d/%d", finished, n)
	}
}

func TestServerManyJobsOrder(t *testing.T) {
	e := New(1)
	s := NewServer(e)
	var order []int
	e.Schedule(0, func() {
		for i := 0; i < 50; i++ {
			s.Submit(Time(i%3+1), func() { order = append(order, i) })
		}
	})
	e.Run(0)
	for i := range order {
		if order[i] != i {
			t.Fatalf("FIFO violated at %d: %v", i, order[:i+1])
		}
	}
}

// TestEveryFireTimes pins the ticker's schedule, which sampled
// trajectories (chaos recovery, serve/qdepth) are built on: first call
// one period from the installing instant, re-armed while the clock is
// before until — so the last call is the first at or after until — and
// each re-arm queued when the previous call ran, behind anything
// already waiting at that timestamp.
func TestEveryFireTimes(t *testing.T) {
	const ns = Nanosecond
	for _, tc := range []struct {
		at, period, until Time
		want              []Time
	}{
		{0, 300 * ns, 1000 * ns, []Time{300 * ns, 600 * ns, 900 * ns, 1200 * ns}},
		{0, 250 * ns, 1000 * ns, []Time{250 * ns, 500 * ns, 750 * ns, 1000 * ns}},
		{100 * ns, 200 * ns, 500 * ns, []Time{300 * ns, 500 * ns}},
		{0, 400 * ns, 100 * ns, []Time{400 * ns}},
	} {
		e := New(1)
		var got []Time
		e.Schedule(tc.at, func() {
			e.Every(tc.period, tc.until, func(now Time) {
				if now != e.Now() {
					t.Errorf("fn got now=%v, clock reads %v", now, e.Now())
				}
				got = append(got, now)
			})
		})
		e.Run(0)
		if !slices.Equal(got, tc.want) {
			t.Fatalf("Every(%d, %d) from %d fired at %v, want %v", tc.period, tc.until, tc.at, got, tc.want)
		}
	}

	e := New(1)
	var order []string
	e.Every(250*ns, 500*ns, func(Time) { order = append(order, "tick") })
	e.Schedule(250*ns, func() { order = append(order, "after-install") })
	e.Schedule(500*ns, func() { order = append(order, "before-rearm") })
	e.Run(0)
	if want := []string{"tick", "after-install", "before-rearm", "tick"}; !slices.Equal(order, want) {
		t.Fatalf("same-timestamp order = %v, want %v", order, want)
	}
}
