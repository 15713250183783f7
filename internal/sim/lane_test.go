package sim

import (
	"container/heap"
	"math/rand"
	"strings"
	"testing"
)

// oracleEntry is one pending event as the test oracle sees it: the
// (at, seq) its scheduling call drew, and the process it activates (-1
// for a plain callback).
type oracleEntry struct {
	at   Time
	seq  uint64
	proc int
}

// oracleHeap is the reference firing order: a container/heap over every
// pending (at, seq), whichever engine structure holds the event.
type oracleHeap []oracleEntry

func (q oracleHeap) Len() int { return len(q) }
func (q oracleHeap) Less(i, j int) bool {
	return q[i].at < q[j].at || (q[i].at == q[j].at && q[i].seq < q[j].seq)
}
func (q oracleHeap) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *oracleHeap) Push(x interface{}) { *q = append(*q, x.(oracleEntry)) }
func (q *oracleHeap) Pop() interface{} {
	old := *q
	n := len(old) - 1
	x := old[n]
	*q = old[:n]
	return x
}

// engineScript drives one engine through every event source from a
// byte script — Schedule, three Servers, two Lines, two processes'
// Sleeps (some holding a Mutex or a credit) and Wakes, a third
// process's staged lock-and-hold and credit-and-hold jobs, and
// Run(until) — and checks every firing against the oracle. It mirrors
// the engine's sequence counter, each server's busyUntil, the Mutex's
// FCFS queue and the Credits' balance and FIFO queue, so the (at, seq)
// filed for each call is derived from the call, not read back from the
// engine.
// Every fired event pops the oracle and must be its top; it then
// consumes one script byte and may schedule more work from engine
// context.
type engineScript struct {
	t       *testing.T
	e       *Engine
	script  []byte
	pos     int
	oracle  oracleHeap
	seq     uint64 // mirror of the engine's sequence counter
	fired   uint64 // oracle pops: the events the engine must have run
	servers [3]*Server
	busy    [3]Time // mirror of each server's busyUntil
	lines   [2]*Line
	procs   [3]*Proc
	idle    [3]bool       // process suspended with no wake pending
	sleeps  [3][]Time     // each process's queued Sleeps, or the stager's jobs' holds
	holds   [3][]holdKind // what each queued Sleep or job holds
	mu      *Mutex        // shared by locked Sleeps and staged jobs
	muHeld  bool          // mirror of mu: held,
	muQueue []int         // and its waiters in FCFS order
	cr      *Credits      // one credit, shared by credit Sleeps and staged jobs
	crAvail int64         // mirror of cr: its balance,
	crQueue []int         // and its waiters in FIFO order
}

// holdKind is what a process holds across one queued Sleep or job.
type holdKind uint8

const (
	holdNothing holdKind = iota // a plain Sleep (the stager's jobs always hold something)
	holdMutex                   // mu, through Lock or LockStage
	holdCredit                  // cr's credit, through Acquire or AcquireStage
)

// stagerProc is the process whose jobs run as stages: each job takes
// mu through LockStage or the credit through AcquireStage, holds it for
// a SleepStage and gives it back, with the process blocked throughout
// and resumed once.
const stagerProc = 2

// scriptStager is process 2's job in progress, in the shape of
// verbs.QP.PostList's poster.
type scriptStager struct {
	s     *engineScript
	p     *Proc
	step  int
	hold  holdKind
	stage func()
}

// advance runs the job's steps until one parks, and reports whether
// the job finished. Every wake the process would have taken fires the
// oracle, whether its stage ran or the wake was taken inline.
func (g *scriptStager) advance() bool {
	s := g.s
	for {
		switch g.step {
		case 0:
			g.step = 1
			if g.hold == holdCredit {
				free := s.acquire(stagerProc)
				if s.cr.AcquireStage(g.p, 1, g.stage) != free {
					s.t.Fatalf("AcquireStage took the credit: %v, mirror: %v", !free, free)
				}
				if free {
					continue
				}
				return false
			}
			if s.lock(stagerProc) {
				if !s.mu.LockStage(g.p, g.stage) {
					s.t.Fatal("LockStage of a free Mutex parked")
				}
				continue
			}
			if s.mu.LockStage(g.p, g.stage) {
				s.t.Fatal("LockStage of a held Mutex took it")
			}
			return false
		case 1:
			g.step = 2
			d := s.sleeps[stagerProc][0]
			s.sleeps[stagerProc] = s.sleeps[stagerProc][1:]
			s.draw(s.e.Now()+d, stagerProc)
			if !g.p.SleepStage(d, g.stage) {
				return false
			}
			s.fire(0, stagerProc)
		default:
			s.release(g.hold)
			return true
		}
	}
}

// resume is the stager's stage callback.
func (g *scriptStager) resume() {
	g.s.fire(0, stagerProc)
	if g.advance() {
		g.p.Resume()
	}
}

// lock mirrors a Lock of mu by process k, reporting whether it is
// taken at once; otherwise k joins the mirrored queue.
func (s *engineScript) lock(k int) bool {
	if !s.muHeld {
		s.muHeld = true
		return true
	}
	s.muQueue = append(s.muQueue, k)
	return false
}

// acquire mirrors an Acquire of the credit by process k, reporting
// whether it is taken at once; otherwise k joins the mirrored queue.
func (s *engineScript) acquire(k int) bool {
	if len(s.crQueue) == 0 && s.crAvail >= 1 {
		s.crAvail--
		return true
	}
	s.crQueue = append(s.crQueue, k)
	return false
}

// take mirrors taking what h names by process k, reporting whether it
// is taken at once.
func (s *engineScript) take(h holdKind, k int) bool {
	if h == holdCredit {
		return s.acquire(k)
	}
	return s.lock(k)
}

// release mirrors, then performs, the Unlock of mu or the Release of
// the credit: a handoff or grant draws the next waiter's activation.
func (s *engineScript) release(h holdKind) {
	if h == holdCredit {
		s.crAvail++
		if len(s.crQueue) > 0 {
			s.crAvail--
			s.draw(s.e.Now(), s.crQueue[0])
			s.crQueue = s.crQueue[1:]
		}
		s.cr.Release(1)
		return
	}
	if len(s.muQueue) > 0 {
		s.draw(s.e.Now(), s.muQueue[0])
		s.muQueue = s.muQueue[1:]
	} else {
		s.muHeld = false
	}
	s.mu.Unlock()
}

// runEngineScript replays script on a fresh engine. The first byte
// picks the two lines' delays; about half of all scripts get two lines
// of equal delay.
func runEngineScript(t *testing.T, script []byte) {
	t.Helper()
	s := &engineScript{t: t, e: New(1), script: script}
	defer s.e.Stop()
	h, _ := s.next()
	d0, d1 := Time(h%8), Time(h>>4%8)
	if h&8 == 0 {
		d1 = d0
	}
	s.lines = [2]*Line{NewLine(s.e, d0), NewLine(s.e, d1)}
	for k := range s.servers {
		s.servers[k] = NewServer(s.e)
	}
	s.mu = NewMutex(s.e)
	s.cr, s.crAvail = NewCredits(s.e, 1), 1
	for k := range s.procs[:stagerProc] {
		s.draw(0, k)
		s.procs[k] = s.e.Go("scripted", func(p *Proc) {
			s.fire(0, k)
			for {
				if len(s.sleeps[k]) == 0 {
					s.idle[k] = true
					p.Suspend()
					s.fire(0, k)
					continue
				}
				d, h := s.sleeps[k][0], s.holds[k][0]
				s.sleeps[k], s.holds[k] = s.sleeps[k][1:], s.holds[k][1:]
				if h != holdNothing {
					waits := !s.take(h, k)
					if h == holdCredit {
						s.cr.Acquire(p, 1)
					} else {
						s.mu.Lock(p)
					}
					if waits {
						s.fire(0, k)
					}
				}
				s.draw(p.Now()+d, k)
				p.Sleep(d)
				s.fire(0, k)
				if h != holdNothing {
					s.release(h)
				}
			}
		})
	}
	s.draw(0, stagerProc)
	s.procs[stagerProc] = s.e.Go("stager", func(p *Proc) {
		g := &scriptStager{s: s, p: p}
		g.stage = g.resume
		s.fire(0, stagerProc)
		for {
			if len(s.sleeps[stagerProc]) == 0 {
				s.idle[stagerProc] = true
				p.Suspend()
				s.fire(0, stagerProc)
				continue
			}
			g.step, g.hold = 0, s.holds[stagerProc][0]
			s.holds[stagerProc] = s.holds[stagerProc][1:]
			if !g.advance() {
				p.Block()
			}
		}
	})
	for {
		b, ok := s.next()
		if !ok {
			break
		}
		s.op(b, true)
	}
	s.e.Run(0)
	if len(s.oracle) != 0 {
		t.Fatalf("engine drained with %d events still in the oracle", len(s.oracle))
	}
	s.checkCounts()
}

func (s *engineScript) next() (byte, bool) {
	if s.pos >= len(s.script) {
		return 0, false
	}
	b := s.script[s.pos]
	s.pos++
	return b, true
}

// draw files the (at, seq) the engine is about to give a scheduling
// call, and returns the seq.
func (s *engineScript) draw(at Time, proc int) uint64 {
	s.seq++
	heap.Push(&s.oracle, oracleEntry{at: at, seq: s.seq, proc: proc})
	return s.seq
}

// fire checks that the event now running — callback seq, or (seq
// ignored) an activation of process proc — is the oracle's next one,
// then reacts to one script byte.
func (s *engineScript) fire(seq uint64, proc int) {
	if len(s.oracle) == 0 {
		s.t.Fatalf("event (seq %d, proc %d) fired at %v with the oracle empty", seq, proc, s.e.Now())
	}
	want := heap.Pop(&s.oracle).(oracleEntry)
	s.fired++
	if want.at != s.e.Now() || want.proc != proc || (proc < 0 && want.seq != seq) {
		s.t.Fatalf("fired (seq %d, proc %d) at %v; the oracle's next is (seq %d, proc %d) at %v",
			seq, proc, s.e.Now(), want.seq, want.proc, want.at)
	}
	s.checkCounts()
	if b, ok := s.next(); ok && b < 160 {
		s.op(b, false)
	}
}

func (s *engineScript) checkCounts() {
	if got := s.e.Events(); got != s.fired {
		s.t.Fatalf("Events = %d, the oracle fired %d", got, s.fired)
	}
	if got := s.e.Pending(); got != len(s.oracle) {
		s.t.Fatalf("Pending = %d, the oracle holds %d", got, len(s.oracle))
	}
}

// op performs the scheduling call b encodes, reading its argument from
// the next byte. Run(until) is legal only from outside the engine, so
// inside an event it degrades to a Schedule.
func (s *engineScript) op(b byte, outside bool) {
	arg, _ := s.next()
	now := s.e.Now()
	switch b % 8 {
	case 1, 2: // Server.Submit; zero service and nil done included
		k, service := int(arg)%3, Time(arg/3)%5
		s.busy[k] = max(s.busy[k], now) + service
		var done func()
		if arg < 240 {
			seq := s.draw(s.busy[k], -1)
			done = func() { s.fire(seq, -1) }
		}
		if got := s.servers[k].Submit(service, done); got != s.busy[k] {
			s.t.Fatalf("server %d departure = %v, want %v", k, got, s.busy[k])
		}
	case 3: // Line.Schedule
		l := s.lines[arg%2]
		seq := s.draw(now+l.Delay(), -1)
		l.Schedule(func() { s.fire(seq, -1) })
	case 4, 6: // queue a process Sleep or staged job (zero holds included), waking it if suspended
		k := int(arg) % 3
		if b%8 == 6 {
			k = stagerProc
		}
		s.sleeps[k] = append(s.sleeps[k], Time(arg/3)%4)
		h := holdNothing
		switch {
		case k == stagerProc && arg%2 == 0, k != stagerProc && arg >= 224:
			h = holdCredit
		case k == stagerProc, arg >= 192:
			h = holdMutex
		}
		s.holds[k] = append(s.holds[k], h)
		if s.idle[k] {
			s.idle[k] = false
			s.draw(now, k)
			s.procs[k].Wake()
		}
	case 5:
		if outside {
			s.runUntil(arg)
			return
		}
		fallthrough
	default: // Schedule; negative (clamped), zero and tied delays included
		d := Time(arg%24) - 4
		seq := s.draw(now+max(d, 0), -1)
		s.e.Schedule(d, func() { s.fire(seq, -1) })
	}
}

// runUntil runs the engine up to a horizon arg picks (or drains it),
// then checks that it stopped exactly there with nothing due left.
func (s *engineScript) runUntil(arg byte) {
	until := s.e.Now() + Time(arg%40) + 1
	if arg >= 250 {
		until = 0
	}
	s.e.Run(until)
	if until > 0 && s.e.Now() != until {
		s.t.Fatalf("Run(%v) stopped at %v", until, s.e.Now())
	}
	if len(s.oracle) > 0 && (until == 0 || s.oracle[0].at <= until) {
		s.t.Fatalf("Run(%v) returned with seq %d at %v still due", until, s.oracle[0].seq, s.oracle[0].at)
	}
	s.checkCounts()
}

// FuzzEngineOrdering is the engine-level ordering contract: whichever
// structure holds an event — event heap, run queue (process activations
// and stage callbacks alike), or a Server's or Line's lane — the engine
// fires everything in the (at, seq) order a single container/heap over
// the same calls gives, with Events and Pending agreeing at every step,
// and Mutex handoffs and credit grants, to waiting processes and to
// stages, in FCFS order. CI runs it with a short -fuzztime budget beside
// FuzzEventQueueOrdering.
func FuzzEngineOrdering(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 3, 1, 3, 0, 5, 255})
	f.Add([]byte{9, 1, 0, 2, 3, 1, 6, 3, 0, 3, 1, 4, 0, 4, 1, 5, 7, 0, 4, 5, 40})
	f.Add([]byte{0x3a, 4, 2, 4, 3, 4, 0, 1, 240, 2, 241, 0, 4, 5, 2, 3, 1, 3, 0})
	f.Add([]byte{0x11, 6, 1, 4, 200, 6, 0, 4, 193, 6, 7, 5, 3, 4, 195, 6, 4, 5, 30, 0, 2, 5, 255})
	f.Fuzz(runEngineScript)
}

// TestEngineOrderingDifferential replays long seeded random scripts
// through the same oracle — the fixed-seed counterpart of the fuzzer.
func TestEngineOrderingDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 4000)
		rng.Read(script)
		runEngineScript(t, script)
	}
}

// mustPanic runs fn and returns the string it panicked with, failing
// the test if it returned normally.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg, _ = r.(string)
	}()
	fn()
	return ""
}

// TestLaneOrderGuard pins the guard every lane push pays: an entry that
// would fire before the lane's tail breaks the FIFO's sort order, so it
// panics, naming the lane, instead of firing out of order.
func TestLaneOrderGuard(t *testing.T) {
	e := New(1)
	defer e.Stop()
	l := &lane{eng: e, name: "probe"}
	l.push(10*Nanosecond, func() {})
	l.push(10*Nanosecond, func() {}) // a tie with the tail is in order
	msg := mustPanic(t, func() { l.push(9*Nanosecond, func() {}) })
	if !strings.Contains(msg, "probe lane") {
		t.Fatalf("panic %q does not name the lane", msg)
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending after the rejected push = %d, want 2", e.Pending())
	}
}

// TestStopDropsLanes: Stop with lanes mid-stream (rings grown past their
// first size) leaves nothing pending, and later Server and Line pushes
// schedule nothing.
func TestStopDropsLanes(t *testing.T) {
	e := New(1)
	s, l := NewServer(e), NewLine(e, 50*Nanosecond)
	fired := 0
	for i := 0; i < 40; i++ {
		s.Submit(3*Nanosecond, func() { fired++ })
		l.Schedule(func() { fired++ })
	}
	e.Run(20 * Nanosecond)
	if fired == 0 || e.Pending() == 0 {
		t.Fatalf("Run(20) fired %d with %d pending; want both non-zero", fired, e.Pending())
	}
	e.Stop()
	if e.Pending() != 0 {
		t.Fatalf("Pending after Stop = %d, want 0", e.Pending())
	}
	if s.lane.buf != nil || l.lane.buf != nil {
		t.Fatal("Stop kept a lane's ring")
	}
	before := fired
	s.Submit(1*Nanosecond, func() { fired++ })
	l.Schedule(func() { fired++ })
	if e.Pending() != 0 {
		t.Fatalf("Pending after post-Stop Submit and Schedule = %d, want 0", e.Pending())
	}
	e.Run(0)
	if fired != before {
		t.Fatal("a lane event scheduled after Stop fired")
	}
}
