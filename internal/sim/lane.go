package sim

import "fmt"

// lane is a FIFO of timed events whose timestamps never decrease in
// push order — a monotone stream, such as a Server's departures
// (busyUntil never decreases) or a fixed-delay Line (now+d never
// decreases). Such a stream is already sorted when it is pushed, so its
// events need no position in the event heap: the lane keeps them in a
// ring, and only its head takes part in the engine's merge, through the
// lane heap (laneHeap). Each entry draws its seq from the engine's
// shared counter at push time, exactly as ScheduleAt would, so (at,
// seq) order within a lane is push order and the merged firing order is
// the one a single heap would produce.
//
// The ring is allocated on first push and grows by doubling, so a lane
// that never carries traffic costs no memory beyond its header.
type lane struct {
	eng  *Engine
	name string  // for the order-violation panic
	buf  []event // ring; len is zero or a power of two
	head int     // index of the oldest entry
	n    int     // entries queued
	last Time    // timestamp of the latest push: the order guard
}

// push queues fn at at. A push that would fire before the lane's latest
// entry breaks the lane's order and panics; after Stop it is a no-op.
func (l *lane) push(at Time, fn func()) {
	e := l.eng
	if e.stopped {
		return
	}
	if at < l.last {
		panic(fmt.Sprintf("sim: %s lane: push at %v precedes its tail at %v", l.name, at, l.last))
	}
	l.last = at
	e.seq++
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = event{at: at, seq: e.seq, fn: fn}
	l.n++
	if l.n == 1 {
		e.lanes.push(laneHead{at: at, seq: e.seq, l: l})
	}
}

// grow doubles the ring (or allocates its first one), unwrapping the
// queued entries to the front.
func (l *lane) grow() {
	size := 2 * len(l.buf)
	if size == 0 {
		size = 16
	}
	buf := make([]event, size)
	for i := 0; i < l.n; i++ {
		buf[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
	}
	l.buf, l.head = buf, 0
}

// reset drops every queued entry and the ring itself (Engine.Stop).
func (l *lane) reset() {
	l.buf, l.head, l.n = nil, 0, 0
}

// laneHead is one non-empty lane in the lane heap, keyed by (at, seq)
// of the lane's oldest entry. The key is copied in so that sifting
// never dereferences the lane.
type laneHead struct {
	at  Time
	seq uint64
	l   *lane
}

// before reports whether the lane's head fires before an event keyed
// (at, seq).
func (h *laneHead) before(at Time, seq uint64) bool {
	return h.at < at || (h.at == at && h.seq < seq)
}

// laneHeap is a binary min-heap of the non-empty lanes. It holds a
// handful of entries (one per busy server or line), so plain branchy
// sifts are all it needs. A lane enters when its first entry is pushed
// and leaves when the engine pops its last one; in between only the
// root's key ever changes, when the engine pops the root lane's head.
type laneHeap []laneHead

func (q *laneHeap) push(x laneHead) {
	h := append(*q, x)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(h[parent].at, h[parent].seq) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
	*q = h
}

// siftRoot moves the root, whose key has just grown, down to its place.
func (q laneHeap) siftRoot() {
	x, n, i := q[0], len(q), 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(q[c].at, q[c].seq) {
			c++
		}
		if !q[c].before(x.at, x.seq) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = x
}

// popLane removes and returns the oldest entry of the lane at the top
// of the lane heap, which must be non-empty.
func (e *Engine) popLane() event {
	h := e.lanes
	l := h[0].l
	ev := l.buf[l.head]
	l.buf[l.head] = event{} // release the fn reference
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	if l.n > 0 {
		next := &l.buf[l.head]
		h[0].at, h[0].seq = next.at, next.seq
		h.siftRoot()
		return ev
	}
	n := len(h) - 1
	h[0] = h[n]
	h[n] = laneHead{}
	e.lanes = h[:n]
	if n > 1 {
		e.lanes.siftRoot()
	}
	return ev
}

// Line is a fixed-delay line: each callback scheduled on it fires
// exactly Delay after it was scheduled, in scheduling order — a wire of
// constant latency. Because every entry lands at now+Delay and now
// never decreases, the line is a lane: its events skip the event heap
// but fire exactly when (and in the order) Schedule(Delay, fn) would
// have fired them.
type Line struct {
	lane  lane
	delay Time
}

// NewLine returns an empty line of delay d on e. A negative d is
// treated as zero.
func NewLine(e *Engine, d Time) *Line {
	if d < 0 {
		d = 0
	}
	return &Line{lane: lane{eng: e, name: "Line(" + d.String() + ")"}, delay: d}
}

// Schedule queues fn to run Delay from now. Must be called from engine
// context. After Stop it is a no-op.
func (l *Line) Schedule(fn func()) { l.lane.push(l.lane.eng.now+l.delay, fn) }

// Delay returns the line's fixed delay.
func (l *Line) Delay() Time { return l.delay }
