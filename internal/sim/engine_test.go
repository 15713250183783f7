package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.Schedule(30*Nanosecond, func() { got = append(got, 3) })
	e.Schedule(10*Nanosecond, func() { got = append(got, 1) })
	e.Schedule(20*Nanosecond, func() { got = append(got, 2) })
	e.Run(0)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestScheduleSameTimeFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		e.Schedule(5*Nanosecond, func() { got = append(got, i) })
	}
	e.Run(0)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-timestamp events out of order: %v", got)
		}
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	e := New(1)
	fired := false
	e.Schedule(100*Nanosecond, func() { fired = true })
	e.Run(50 * Nanosecond)
	if fired {
		t.Fatal("event past horizon fired")
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %v, want 50", e.Now())
	}
	e.Run(0)
	if !fired {
		t.Fatal("event did not fire on resumed run")
	}
}

func TestRunAdvancesToUntilWhenIdle(t *testing.T) {
	e := New(1)
	e.Run(77 * Nanosecond)
	if e.Now() != 77 {
		t.Fatalf("Now = %v, want 77", e.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New(1)
	e.Schedule(10*Nanosecond, func() {
		e.Schedule(-5*Nanosecond, func() {
			if e.Now() != 10 {
				t.Errorf("negative delay fired at %v, want 10", e.Now())
			}
		})
	})
	e.Run(0)
}

func TestScheduleAtPastClamped(t *testing.T) {
	e := New(1)
	e.Schedule(10*Nanosecond, func() {
		e.ScheduleAt(3*Nanosecond, func() {
			if e.Now() != 10 {
				t.Errorf("past event fired at %v, want 10", e.Now())
			}
		})
	})
	e.Run(0)
}

func TestStep(t *testing.T) {
	e := New(1)
	n := 0
	e.Schedule(1*Nanosecond, func() { n++ })
	e.Schedule(2*Nanosecond, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !e.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		e := New(42)
		defer e.Stop()
		var trace []int64
		for i := 0; i < 4; i++ {
			e.Go("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(Time(e.Rand().Intn(100)))
					trace = append(trace, int64(e.Now()))
				}
			})
		}
		e.Run(0)
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: time observed by a process never goes backwards, for any
// sequence of sleep durations.
func TestTimeMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New(7)
		defer e.Stop()
		ok := true
		e.Go("p", func(p *Proc) {
			last := p.Now()
			for _, d := range delays {
				p.Sleep(Time(d))
				if p.Now() < last {
					ok = false
				}
				last = p.Now()
			}
		})
		e.Run(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{1500 * Nanosecond, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for in, want := range map[string]Time{
		"0s": 0, "500ns": 500, "2us": 2 * Microsecond, "3ms": 3 * Millisecond,
		"3600s": 3600 * Second, " 7us ": 7 * Microsecond,
	} {
		if got, err := ParseDuration(in); err != nil || got != want {
			t.Errorf("ParseDuration(%q) = %d, %v; want %d", in, int64(got), err, int64(want))
		}
	}
	for in, want := range map[string]string{
		"":       "no unit suffix",
		"400":    "no unit suffix",
		"us":     "not an integer",
		"1.5ms":  "not an integer",
		"1e3us":  "not an integer",
		"-5us":   "is negative",
		"3601s":  "implausibly large",
		"1ms2us": "not an integer",
	} {
		if _, err := ParseDuration(in); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseDuration(%q) error = %v, want one containing %q", in, err, want)
		}
	}
}
