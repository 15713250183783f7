// Package sweep executes the independent points of an experiment
// sweep on a bounded worker pool without giving up determinism.
//
// An experiment sweep is dozens of fully independent cluster runs:
// each point owns its cluster, discrete-event engine, seeded
// rand.Source, and telemetry registry, so points can execute
// concurrently with zero cross-talk. The scheduler exploits exactly
// that structure and nothing more. An experiment first *enumerates*
// its points into a Set — (label, seed, config, run func) → result
// slot — and then hands the Set to a Sweeper:
//
//   - the run funcs execute on up to Workers goroutines, in any
//     completion order;
//   - the merge continuations — the only code allowed to touch shared
//     experiment state such as result tables — run on the Run
//     caller's goroutine, strictly in enumeration order.
//
// Everything a sweep emits (text, JSON, telemetry documents) is built
// inside merges, so the output is byte-identical whether the sweep ran
// on one worker or many; the golden files and the
// parallel-vs-sequential tests in internal/bench pin that contract.
// The flip side is a hard invariant on run funcs: a point's run func
// must touch only state owned by that point. Package-level mutable
// variables in runner packages are flagged by smartlint's sharedstate
// analyzer, and CI runs a parallel sweep under -race.
package sweep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// A Point is one independent unit of a sweep: a labeled, seeded
// experiment run. The execution and merge closures are attached by
// Set.AddFunc (or the typed Add helper) and are not exported; Label
// and Seed identify the point on the progress stream and in audits.
type Point struct {
	Label string
	Seed  int64

	exec  func() // runs the point, filling its result slot
	merge func() // consumes the slot; called in enumeration order
}

// run executes the point and reports a panicking exec as the message
// Run re-raises on its caller's goroutine: the point's label and seed,
// the panic value, and the stack of the goroutine that panicked.
func (p *Point) run() (failure string) {
	defer func() {
		if v := recover(); v != nil {
			failure = fmt.Sprintf("sweep: point %q (seed %d) panicked: %v\n\n%s", p.Label, p.Seed, v, debug.Stack())
		}
	}()
	p.exec()
	return ""
}

// A Set is the ordered enumeration of one sweep's points. The zero
// value is ready to use.
type Set struct {
	points []*Point
}

// Len returns the number of enumerated points.
func (s *Set) Len() int { return len(s.points) }

// Labels returns the point labels in enumeration order.
func (s *Set) Labels() []string {
	out := make([]string, len(s.points))
	for i, p := range s.points {
		out[i] = p.Label
	}
	return out
}

// Points returns the enumerated points in order. Probing tooling (the
// spec dry-run path and the enumeration-equality tests) reads labels
// and seeds through it; the closures stay unexported.
func (s *Set) Points() []*Point { return s.points }

// AddFunc enumerates one point from raw closures: exec runs on a
// worker (concurrently with other points' execs), merge runs on the
// Run caller's goroutine in enumeration order. merge may be nil.
func (s *Set) AddFunc(label string, seed int64, exec, merge func()) {
	if exec == nil {
		panic("sweep: point " + label + " has no exec func")
	}
	s.points = append(s.points, &Point{Label: label, Seed: seed, exec: exec, merge: merge})
}

// Add enumerates one typed point: run(cfg) executes on a worker and
// fills the point's result slot; merge(result) then consumes the slot
// in enumeration order. cfg is captured by value at enumeration time,
// so later mutations of the caller's copy cannot leak into a running
// point.
func Add[C, R any](s *Set, label string, seed int64, cfg C, run func(C) R, merge func(R)) {
	var slot R
	s.AddFunc(label, seed,
		//smartlint:ignore pointisolation — slot is this point's own result cell: only this exec writes it, and only this point's merge reads it, after the exec completes
		func() { slot = run(cfg) },
		func() {
			if merge != nil {
				merge(slot)
			}
		})
}

// A Sweeper executes point sets on a bounded worker pool. The zero
// value is not usable; construct with New or Sequential. A Sweeper
// carries no per-sweep state and may be reused for any number of Run
// calls (the smartbench CLI uses one Sweeper for every selected
// experiment), but Run itself must not be called concurrently when a
// progress hook is installed.
type Sweeper struct {
	workers int
	onPoint func(done, total int, p *Point)
	probe   func(*Set)
}

// New returns a Sweeper with the given worker bound. workers <= 0
// selects GOMAXPROCS, the scheduler's default.
func New(workers int) *Sweeper {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Sweeper{workers: workers}
}

// Sequential returns a single-worker Sweeper: points execute on the
// caller's goroutine in enumeration order, exactly like the historical
// inline loops.
func Sequential() *Sweeper { return New(1) }

// Probe returns a Sweeper that records each Run call's set through fn
// and executes nothing — no execs, no merges, no progress hooks. It
// makes enumeration a first-class phase on its own: tooling (and
// tests) can ask an experiment for its points — labels, seeds, count —
// without paying for a single run. Experiments driven by a probe
// return structurally complete but empty tables.
func Probe(fn func(*Set)) *Sweeper { return &Sweeper{workers: 1, probe: fn} }

// Workers returns the worker bound.
func (sw *Sweeper) Workers() int { return sw.workers }

// OnPoint installs a progress hook, invoked once per point on the Run
// caller's goroutine, in enumeration order, directly after the point's
// merge. done counts merged points (1-based), total is Set.Len().
// Because the hook fires in merge order, anything it prints is
// byte-identical across worker counts.
func (sw *Sweeper) OnPoint(fn func(done, total int, p *Point)) { sw.onPoint = fn }

// Run executes every point of the set and returns once all execs and
// merges have finished. Merges (and the progress hook) run on the
// caller's goroutine in enumeration order regardless of the order in
// which execs complete; with a single worker the execs themselves run
// interleaved with their merges on the caller's goroutine, so a
// sequential sweep spawns no goroutines at all.
//
// A point whose exec panics fails the whole sweep, attributed: Run
// panics on the caller's goroutine with the point's label and seed,
// after every earlier point has merged and before any later one does.
func (sw *Sweeper) Run(s *Set) {
	if sw.probe != nil {
		sw.probe(s)
		return
	}
	n := len(s.points)
	if n == 0 {
		return
	}
	workers := sw.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i, p := range s.points {
			if failure := p.run(); failure != "" {
				panic(failure)
			}
			sw.finish(i, n, p)
		}
		return
	}

	jobs := make(chan int, n)
	for i := range s.points {
		jobs <- i
	}
	close(jobs)

	// One done channel per point: closing it publishes the point's
	// result slot to the merging goroutine (channel close/receive is
	// the happens-before edge the slot read relies on), and its
	// failure message if the exec panicked.
	failures := make([]string, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				failures[i] = s.points[i].run()
				close(done[i])
			}
		}()
	}
	for i, p := range s.points {
		<-done[i]
		if failures[i] != "" {
			// Terminal for the process, so the pool is not drained
			// or awaited: the report should not wait on other points.
			panic(failures[i])
		}
		sw.finish(i, n, p)
	}
	wg.Wait()
}

// finish runs a point's merge and progress hook, in that order.
func (sw *Sweeper) finish(i, n int, p *Point) {
	if p.merge != nil {
		p.merge()
	}
	if sw.onPoint != nil {
		sw.onPoint(i+1, n, p)
	}
}
