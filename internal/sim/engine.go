// Package sim implements the discrete-event simulation kernel that the
// whole reproduction runs on. It provides a virtual clock, an event
// queue, coroutine-backed simulated processes (used for compute-blade
// threads and coroutines), and FCFS synchronization primitives with
// waiter accounting (used to model driver spinlocks, credits, and
// completion queues).
//
// The engine is strictly single-threaded: at any instant either the
// event loop or exactly one simulated process is running. A process is
// a runtime coroutine (iter.Pull, see Proc): the engine switches into
// it, and it switches back whenever it sleeps or blocks — a direct
// goroutine-to-goroutine switch with no run queue or channel in
// between — so no further synchronization is needed inside models
// built on top of the kernel, and runs are fully deterministic for a
// given seed.
//
// Hot-path design (DESIGN.md §14): timed callbacks live in a
// value-typed 4-ary min-heap ([]event, branchless comparisons, no
// per-event allocation); same-timestamp process activations
// (Proc.Wake, zero Sleeps — every CQE delivery, mutex handoff and
// credit grant, including those that run a blocked process's stage,
// see Proc.Block)
// bypass the heap through a FIFO run queue; and monotone streams —
// Server departures and fixed-delay Lines, the RNIC pipelines and wire
// hops that carry most in-flight WRs — bypass it through per-source
// FIFO lanes, whose heads a small lane heap orders. All three share one
// sequence counter, and the engine always executes whichever of the
// three heads has the smallest (timestamp, seq), so the firing order is
// bit-for-bit the order a single heap would produce — the determinism
// contract the golden files pin.
package sim

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Time is a point in virtual time, in nanoseconds.
type Time int64

// Convenient duration units, all expressed in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// ParseDuration parses the suffixed-integer duration grammar every
// spec format shares (-faults, -arrival, -batching, scenario specs):
// a non-negative integer with a mandatory unit suffix (ns, us, ms, s),
// surrounding whitespace ignored. Magnitudes past an hour of virtual
// time are rejected so no caller's Time arithmetic can overflow.
// Errors carry no package prefix; callers wrap them with their own.
func ParseDuration(s string) (Time, error) {
	s = strings.TrimSpace(s)
	unit, digits := Time(0), s
	switch {
	case strings.HasSuffix(s, "ns"):
		unit, digits = Nanosecond, s[:len(s)-2]
	case strings.HasSuffix(s, "us"):
		unit, digits = Microsecond, s[:len(s)-2]
	case strings.HasSuffix(s, "ms"):
		unit, digits = Millisecond, s[:len(s)-2]
	case strings.HasSuffix(s, "s"):
		unit, digits = Second, s[:len(s)-1]
	default:
		return 0, fmt.Errorf("duration %q has no unit suffix (ns, us, ms, s)", s)
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("duration %q is not an integer", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("duration %q is negative", s)
	}
	if Time(n) > 3600*Second/unit {
		return 0, fmt.Errorf("duration %q is implausibly large", s)
	}
	return Time(n) * unit, nil
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct one with New.
type Engine struct {
	now      Time
	eq       eventQueue
	runq     runQueue
	lanes    laneHeap // the non-empty lanes, by head (see lane)
	seq      uint64
	rng      *rand.Rand
	stopped  bool
	procs    int     // live (started, not finished) processes, for diagnostics
	live     []*Proc // every process ever spawned; Stop unwinds the parked ones
	parks    uint64  // times any process reached a simulated blocking point
	wakes    uint64  // times any process was woken from a park
	switches uint64  // coroutine switches into a process (activate, Resume, Await)
	events   uint64  // events executed (timer fires + process activations)
	fp       uint64  // running hash of every executed event's (at, seq), see Fingerprint
}

// FNV-1a's 64-bit offset basis and prime, the fingerprint's hash.
const (
	fpBasis = 0xcbf29ce484222325
	fpPrime = 0x100000001b3
)

// New returns an engine whose clock starts at zero and whose random
// stream is seeded with seed. Equal seeds give identical runs.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), fp: fpBasis}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random stream. It must only
// be used from engine context (event callbacks and processes).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Procs reports the number of live simulated processes.
func (e *Engine) Procs() int { return e.procs }

// Pending reports the number of queued events, counting timed events
// (in the heap and in lanes) and pending same-timestamp activations.
func (e *Engine) Pending() int {
	n := len(e.eq) + e.runq.len()
	for _, h := range e.lanes {
		n += h.l.n
	}
	return n
}

// Parks reports how many times any process parked — reached a
// simulated blocking point (a Sleep, a Suspend, a contended Lock or
// credit Acquire) — over the engine's lifetime. A park is simulated,
// not a host cost: a process blocked in staged work (see Proc.Block)
// parks at every stage without a coroutine switch. Telemetry reads it
// as a scheduler-pressure signal.
func (e *Engine) Parks() uint64 { return e.parks }

// Wakes reports how many times any process was woken from a park,
// whether the engine switched into it or a stage ran on its behalf.
// Paired with Parks it bounds how much blocking a configuration
// generates.
func (e *Engine) Wakes() uint64 { return e.wakes }

// Switches reports how many times the engine switched into a process:
// a coroutine switch, the host cost that Parks and Wakes do not
// measure. A wake taken by the self-wake short-circuit, or by a stage
// run on a blocked process's behalf, switches nowhere; a process
// blocked through a whole staged submission is switched into once, by
// its last stage, or by the wake it awaits when that stage leaves it
// suspended (Proc.Await). Unlike Parks and Wakes it is not exported to
// telemetry: it is a property of the host implementation, not of the
// simulated run, and the goldens must not move when it does.
func (e *Engine) Switches() uint64 { return e.switches }

// Events reports how many events the engine has executed — timer
// callbacks plus process activations, including run-queue activations
// that never touched the heap. It is the denominator of the kernel's
// events-per-second perf metric (internal/perf); it feeds no result
// table, but like every engine counter it is deterministic for a
// given seed.
func (e *Engine) Events() uint64 { return e.events }

// Fingerprint returns a running 64-bit hash of every event the engine
// has executed, each as its (timestamp, sequence number): two runs
// with equal fingerprints executed the same events in the same order,
// which equal counts and equal rounded tables do not prove. Like
// Switches it feeds no result table; tests pin it per sweep point.
func (e *Engine) Fingerprint() uint64 { return e.fp }

// mix folds one executed event into the fingerprint. Every site that
// counts an event calls it.
func (e *Engine) mix(at Time, seq uint64) {
	e.fp = (e.fp ^ uint64(at)) * fpPrime
	e.fp = (e.fp ^ seq) * fpPrime
}

// Schedule queues fn to run after delay. A negative delay is treated
// as zero. Must be called from engine context.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt queues fn to run at the absolute virtual time at. Times in
// the past are clamped to now. After Stop it is a no-op.
func (e *Engine) ScheduleAt(at Time, fn func()) {
	if e.stopped {
		return
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.eq.push(event{at: at, seq: e.seq, fn: fn})
}

// Every calls fn at period, 2·period, … from now, each call re-arming
// the next while the clock is still before until — so the last call is
// the first one at or after until. It is the periodic sampler's
// schedule: a sampler's fn only reads, so it cannot perturb the run it
// observes. Must be called from engine context.
func (e *Engine) Every(period, until Time, fn func(now Time)) {
	e.Schedule(period, func() {
		fn(e.now)
		if e.now < until {
			e.Every(period, until, fn)
		}
	})
}

// enqueueRun queues a same-timestamp activation for p. It shares the
// sequence counter with ScheduleAt, so run-queue entries and heap
// events at the same timestamp interleave exactly as if both had gone
// through the heap.
func (e *Engine) enqueueRun(p *Proc) {
	if e.stopped {
		return
	}
	e.seq++
	e.runq.push(e.seq, p)
}

// runqFirst reports whether the run-queue head fires before both timed
// heads. Run-queue entries are always stamped at the current virtual
// time, so the head precedes any strictly later timed event, and seq
// decides against timed events at the same timestamp.
func (e *Engine) runqFirst() bool {
	if e.runq.empty() {
		return false
	}
	seq := e.runq.first().seq
	if len(e.eq) > 0 && e.eq[0].at <= e.now && e.eq[0].seq < seq {
		return false
	}
	return len(e.lanes) == 0 || e.lanes[0].at > e.now || e.lanes[0].seq > seq
}

// laneFirst reports whether the next timed event is a lane head rather
// than the event-heap top: the lane heap is non-empty and its top fires
// before the heap's.
func (e *Engine) laneFirst() bool {
	return len(e.lanes) > 0 && (len(e.eq) == 0 || e.lanes[0].before(e.eq[0].at, e.eq[0].seq))
}

// fireTimed pops the next timed event — from the lane heap if fromLane,
// else from the event heap — advances the clock to it and runs it.
func (e *Engine) fireTimed(fromLane bool) {
	var ev event
	if fromLane {
		ev = e.popLane()
	} else {
		ev = e.eq.pop()
	}
	e.now = ev.at
	e.events++
	e.mix(ev.at, ev.seq)
	ev.fn()
}

// Run executes events in timestamp order until the queue drains or the
// clock passes until (if until > 0). It returns the virtual time at
// which it stopped. After Stop, Run is a no-op that reports the time
// the simulation stopped at. A panic in a process body propagates, with
// its value, to Run's caller; the engine can then only be Stopped.
func (e *Engine) Run(until Time) Time {
	if e.stopped {
		return e.now
	}
	for {
		if e.runqFirst() {
			if until > 0 && e.now > until {
				e.now = until
				return e.now
			}
			e.events++
			e.mix(e.now, e.runq.first().seq)
			e.runq.pop().activate()
			continue
		}
		fromLane := e.laneFirst()
		var at Time
		switch {
		case fromLane:
			at = e.lanes[0].at
		case len(e.eq) > 0:
			at = e.eq[0].at
		default:
			if until > e.now {
				e.now = until
			}
			return e.now
		}
		if until > 0 && at > until {
			e.now = until
			return e.now
		}
		e.fireTimed(fromLane)
	}
}

// Step executes the single next event, if any, and reports whether one
// was executed. It is mostly useful in tests. A run-queue activation
// counts as one event. After Stop, Step reports false.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	if e.runqFirst() {
		e.events++
		e.mix(e.now, e.runq.first().seq)
		e.runq.pop().activate()
		return true
	}
	fromLane := e.laneFirst()
	if !fromLane && len(e.eq) == 0 {
		return false
	}
	e.fireTimed(fromLane)
	return true
}

// Stop terminates the simulation: all parked processes are unwound and
// their coroutines exit. After Stop the engine must not be reused:
// Schedule and Wake become no-ops, Run returns immediately, and Step
// reports false. Stop is idempotent. It must be called from outside
// the simulation (never from a process body or event callback), and
// deferred cleanup in process bodies must not block on simulation
// primitives.
//
// Processes are unwound ONE AT A TIME: stop switches into the parked
// coroutine, whose park raises killProc, and returns once the body's
// deferred cleanups have run and the coroutine has exited (a process
// never activated exits without running its body; a finished one is
// skipped). Those cleanups (credit releases, per-thread stats in
// core.Ctx.EndOp) write state shared by a thread's coroutines, so they
// must not overlap — and cannot, since Stop is suspended while each
// runs. A cleanup that panics re-raises in Stop's caller, as a body's
// panic does in Run's.
func (e *Engine) Stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	e.eq = nil
	e.runq.reset()
	for _, h := range e.lanes {
		h.l.reset()
	}
	e.lanes = nil
	for _, p := range e.live {
		p.stop()
	}
	e.live = nil
}
