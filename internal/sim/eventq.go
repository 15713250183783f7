package sim

import "math/bits"

// event is a scheduled callback. Events with equal timestamps fire in
// scheduling order (seq breaks ties), which keeps runs deterministic.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before is the firing order: earlier timestamp first, scheduling
// order (seq) breaking ties.
func (ev event) before(o event) bool {
	return ev.at < o.at || (ev.at == o.at && ev.seq < o.seq)
}

// eventQueue is a hand-rolled 4-ary min-heap of event values ordered
// by (at, seq). Unlike the previous container/heap implementation over
// *event pointers, pushing costs no allocation (beyond amortized slice
// growth) and no interface boxing: events live inline in the backing
// array and the sift loops compile to straight-line moves (displaced
// events are copied over the hole, never swapped). The hole left by
// pop is zeroed so the callback closure does not outlive its firing.
//
// Two things make the sift loops fast. First, (at, seq) compares as a
// single 128-bit unsigned key (at is never negative), so "fires
// before" is the borrow out of a two-word subtract — branch-free,
// which matters because sibling picks are coin flips to the branch
// predictor. Second, the fan-out of four halves the tree depth of a
// binary heap: pop's latency is a serial chain of dependent loads
// (each level's index depends on the previous compare), and the
// tournament min over four children is a two-deep CMOV tree whose
// loads all issue in parallel within a level.
type eventQueue []event

// earlier returns whichever of a and b indexes the earlier-firing
// event in h, branch-free.
func earlier(h []event, a, b int) int {
	_, borrow := bits.Sub64(h[b].seq, h[a].seq, 0)
	_, borrow = bits.Sub64(uint64(h[b].at), uint64(h[a].at), borrow)
	return a ^ ((a ^ b) & -int(borrow)) // b if borrow else a, branch-free
}

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	// Sift up: move the new event toward the root while it fires
	// before its parent. The moved-over parents are copied, not
	// swapped; ev is written once at its final slot.
	i := len(h) - 1
	for i > 0 {
		parent := int(uint(i-1) >> 2)
		_, borrow := bits.Sub64(ev.seq, h[parent].seq, 0)
		_, borrow = bits.Sub64(uint64(ev.at), uint64(h[parent].at), borrow)
		if borrow == 0 { // ev does not fire before its parent
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the event that fires next. The queue must be
// non-empty.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	tail := h[n]
	h[n] = event{} // release the fn reference
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	// Sift down from the root: at each level pull up the
	// earliest-firing child until the relocated tail event fits. The
	// displaced events are copied, not swapped; tail is written once.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		var m int
		if c+4 <= n { // full fan-out: tournament, two CMOVs deep
			m = earlier(h, earlier(h, c, c+1), earlier(h, c+2, c+3))
		} else {
			m = c
			for j := c + 1; j < n; j++ {
				m = earlier(h, m, j)
			}
		}
		_, borrow := bits.Sub64(h[m].seq, tail.seq, 0)
		_, borrow = bits.Sub64(uint64(h[m].at), uint64(tail.at), borrow)
		if borrow == 0 { // the earliest child does not fire before tail
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = tail
	return top
}

// runEntry is one pending same-timestamp process activation. Entries
// share the engine's event sequence counter, so merging the run queue
// with the event heap by (timestamp, seq) reproduces exactly the
// firing order the heap alone used to produce.
type runEntry struct {
	seq uint64
	p   *Proc
}

// runQueue is the same-timestamp activation queue: woken processes go
// here instead of round-tripping through the event heap. Entries are
// only ever enqueued at the current virtual time and drained before
// the clock advances, so a plain FIFO ring suffices; seq is kept per
// entry to interleave deterministically with heap events at the same
// timestamp. Each process counts its own pending entries (Proc.queued),
// which the stray-wake guard reads (Proc.arm).
type runQueue struct {
	buf  []runEntry
	head int
}

func (q *runQueue) push(seq uint64, p *Proc) {
	p.queued++
	q.buf = append(q.buf, runEntry{seq: seq, p: p})
}

func (q *runQueue) empty() bool { return q.head == len(q.buf) }

func (q *runQueue) len() int { return len(q.buf) - q.head }

// first returns the oldest pending activation. The queue must be
// non-empty.
func (q *runQueue) first() runEntry { return q.buf[q.head] }

// pop removes and returns the oldest pending activation's process.
// The queue must be non-empty. The backing array is reset (not
// reallocated) once drained, so steady-state operation allocates
// nothing.
func (q *runQueue) pop() *Proc {
	p := q.buf[q.head].p
	p.queued--
	q.buf[q.head].p = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return p
}

func (q *runQueue) reset() {
	q.buf = nil
	q.head = 0
}
