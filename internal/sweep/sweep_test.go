package sweep

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// TestMergeOrderIsEnumerationOrder is the scheduler's core contract:
// merges fire in enumeration order even when execs complete in the
// reverse order. Point 0's exec blocks until point 1's exec has run,
// which requires at least two workers; the merge log must still read
// 0, 1.
func TestMergeOrderIsEnumerationOrder(t *testing.T) {
	set := &Set{}
	p1Done := make(chan struct{})
	var merges []int
	//smartlint:ignore pointisolation — reviewed: the test couples the two points through p1Done on purpose, to force reverse completion order
	set.AddFunc("p0", 0, func() { <-p1Done }, func() { merges = append(merges, 0) })
	//smartlint:ignore pointisolation — reviewed: the test couples the two points through p1Done on purpose, to force reverse completion order
	set.AddFunc("p1", 0, func() { close(p1Done) }, func() { merges = append(merges, 1) })
	New(2).Run(set)
	if len(merges) != 2 || merges[0] != 0 || merges[1] != 1 {
		t.Fatalf("merge order = %v, want [0 1]", merges)
	}
}

// TestPointsRunConcurrently proves the pool actually overlaps execs:
// two points each wait for the other to have started, which can only
// complete if both run at once.
func TestPointsRunConcurrently(t *testing.T) {
	set := &Set{}
	var both sync.WaitGroup
	both.Add(2)
	rendezvous := func() {
		both.Done()
		both.Wait()
	}
	set.AddFunc("a", 0, rendezvous, nil)
	set.AddFunc("b", 0, rendezvous, nil)
	New(2).Run(set) // would deadlock (and time out the test) if serialized
}

// TestWorkerBound checks that no more than Workers execs are ever in
// flight at once.
func TestWorkerBound(t *testing.T) {
	const workers, points = 2, 16
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	var inFlight, peak atomic.Int64
	set := &Set{}
	for i := 0; i < points; i++ {
		//smartlint:ignore pointisolation — reviewed: the shared atomics are the instrument; the test exists to measure cross-point concurrency
		set.AddFunc(fmt.Sprintf("p%d", i), int64(i), func() {
			cur := inFlight.Add(1)
			for {
				old := peak.Load()
				if cur <= old || peak.CompareAndSwap(old, cur) {
					break
				}
			}
			runtime.Gosched()
			inFlight.Add(-1)
		}, nil)
	}
	New(workers).Run(set)
	if got := peak.Load(); got > workers {
		t.Fatalf("peak in-flight execs = %d, want <= %d", got, workers)
	}
}

// TestAddFillsSlotsInOrder exercises the typed Add helper end to end:
// every config reaches its run func by value and every merge sees its
// own point's result.
func TestAddFillsSlotsInOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		set := &Set{}
		var got []int
		for i := 0; i < 10; i++ {
			Add(set, fmt.Sprintf("p%d", i), int64(i), i,
				func(cfg int) int { return cfg * cfg },
				func(r int) { got = append(got, r) })
		}
		New(workers).Run(set)
		if len(got) != 10 {
			t.Fatalf("workers=%d: merged %d results, want 10", workers, len(got))
		}
		for i, r := range got {
			if r != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

// TestConfigCapturedByValue pins Add's snapshot semantics: mutating
// the caller's config after enumeration must not change what the
// point runs.
func TestConfigCapturedByValue(t *testing.T) {
	type cfg struct{ V int }
	c := cfg{V: 1}
	set := &Set{}
	var got int
	Add(set, "p", 0, c, func(c cfg) int { return c.V }, func(r int) { got = r })
	c.V = 99
	Sequential().Run(set)
	if got != 1 {
		t.Fatalf("point saw config V=%d, want the enumeration-time value 1", got)
	}
}

// TestProgressHook checks the hook fires once per point, in order,
// with the enumerated labels and seeds.
func TestProgressHook(t *testing.T) {
	for _, workers := range []int{1, 3} {
		set := &Set{}
		for i := 0; i < 5; i++ {
			set.AddFunc(fmt.Sprintf("p%d", i), int64(10+i), func() {}, nil)
		}
		sw := New(workers)
		var log []string
		sw.OnPoint(func(done, total int, p *Point) {
			log = append(log, fmt.Sprintf("%d/%d %s seed=%d", done, total, p.Label, p.Seed))
		})
		sw.Run(set)
		want := []string{"1/5 p0 seed=10", "2/5 p1 seed=11", "3/5 p2 seed=12", "4/5 p3 seed=13", "5/5 p4 seed=14"}
		if len(log) != len(want) {
			t.Fatalf("workers=%d: %d hook calls, want %d", workers, len(log), len(want))
		}
		for i := range want {
			if log[i] != want[i] {
				t.Fatalf("workers=%d: hook[%d] = %q, want %q", workers, i, log[i], want[i])
			}
		}
	}
}

// TestMergeSeesHappensBeforeWrite hammers the slot-publication edge
// (exec writes, merge reads) across many points; run under -race in
// CI this is the memory-model audit of the scheduler.
func TestMergeSeesHappensBeforeWrite(t *testing.T) {
	set := &Set{}
	const points = 200
	results := make([]int, points)
	sum := 0
	for i := 0; i < points; i++ {
		Add(set, fmt.Sprintf("p%d", i), int64(i), i,
			func(cfg int) int {
				results[cfg] = cfg + 1 // distinct slot per point
				return cfg + 1
			},
			func(r int) { sum += r })
	}
	New(8).Run(set)
	if want := points * (points + 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	for i, r := range results {
		if r != i+1 {
			t.Fatalf("results[%d] = %d, want %d", i, r, i+1)
		}
	}
}

func TestEmptySetAndDefaults(t *testing.T) {
	Sequential().Run(&Set{}) // must not hang or panic
	if w := New(0).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(0).Workers() = %d, want GOMAXPROCS = %d", w, runtime.GOMAXPROCS(0))
	}
	if w := New(-3).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(-3).Workers() = %d, want GOMAXPROCS", w)
	}
	if w := Sequential().Workers(); w != 1 {
		t.Fatalf("Sequential().Workers() = %d, want 1", w)
	}
	set := &Set{}
	set.AddFunc("a", 1, func() {}, nil)
	set.AddFunc("b", 2, func() {}, nil)
	if got := set.Labels(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Labels() = %v", got)
	}
	if set.Len() != 2 {
		t.Fatalf("Len() = %d", set.Len())
	}
}

func TestNilExecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddFunc with nil exec did not panic")
		}
	}()
	(&Set{}).AddFunc("p", 0, nil, nil)
}

// TestPanickingPointIsAttributed: a panicking exec fails the sweep on
// the caller's goroutine with the point's label, seed, panic value and
// original stack, after the earlier points merged and before any later
// one does — at one worker and on a pool.
func TestPanickingPointIsAttributed(t *testing.T) {
	testPanickingPoint(t, func() { panic("boom at three") }, "boom at three")
}

// TestPanickingProcessBodyIsAttributed: the same holds when the panic
// is raised inside a simulated process of the point's engine — the
// kernel re-raises it from Engine.Run, on the worker running the point.
func TestPanickingProcessBodyIsAttributed(t *testing.T) {
	testPanickingPoint(t, func() {
		e := sim.New(43)
		defer e.Stop()
		e.Go("bystander", func(p *sim.Proc) { p.Suspend() })
		e.Go("faulty", func(p *sim.Proc) {
			p.Sleep(sim.Microsecond)
			panic("boom in a process")
		})
		e.Run(0)
	}, "boom in a process")
}

// testPanickingPoint sweeps six points whose fourth runs exec, which
// must panic with value, at 1 and 4 workers.
func testPanickingPoint(t *testing.T, exec func(), value string) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			set := &Set{}
			var merges []int
			for i := 0; i < 6; i++ {
				run := func() {}
				if i == 3 {
					run = exec
				}
				set.AddFunc(fmt.Sprintf("p%d", i), int64(40+i), run, func() { merges = append(merges, i) })
			}
			defer func() {
				msg, _ := recover().(string)
				for _, want := range []string{`sweep: point "p3" (seed 43) panicked: ` + value, "goroutine ", "sweep_test.go"} {
					if !strings.Contains(msg, want) {
						t.Errorf("panic message lacks %q:\n%s", want, msg)
					}
				}
				if fmt.Sprint(merges) != "[0 1 2]" {
					t.Errorf("merged %v before the panic surfaced, want [0 1 2]", merges)
				}
			}()
			New(workers).Run(set)
			t.Fatal("Run returned despite a panicking point")
		})
	}
}

// TestMoreWorkersThanPoints: the pool must clamp to the point count
// and still merge everything.
func TestMoreWorkersThanPoints(t *testing.T) {
	set := &Set{}
	var merged int
	for i := 0; i < 3; i++ {
		set.AddFunc(fmt.Sprintf("p%d", i), 0, func() {}, func() { merged++ })
	}
	New(64).Run(set)
	if merged != 3 {
		t.Fatalf("merged %d points, want 3", merged)
	}
}

// TestProbeRecordsWithoutExecuting: a probe sweeper must hand the set
// to its callback and run nothing — no execs, no merges, no hooks.
func TestProbeRecordsWithoutExecuting(t *testing.T) {
	set := &Set{}
	ran := false
	//smartlint:ignore pointisolation — reviewed: ran is the tripwire; a probe sweeper must never call the exec at all
	set.AddFunc("p0", 7, func() { ran = true }, func() { ran = true })
	var got []string
	sw := Probe(func(s *Set) { got = append(got, s.Labels()...) })
	sw.OnPoint(func(done, total int, p *Point) { ran = true })
	sw.Run(set)
	if ran {
		t.Fatal("probe executed a point (exec, merge, or hook fired)")
	}
	if len(got) != 1 || got[0] != "p0" {
		t.Fatalf("probe recorded labels %v, want [p0]", got)
	}
}
