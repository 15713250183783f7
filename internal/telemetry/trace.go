package telemetry

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// Event is one traced occurrence, stamped with the simulated clock —
// never the wall clock — so traces are seed-deterministic.
type Event struct {
	At     sim.Time
	Kind   string
	Detail string
}

// Trace is a fixed-capacity ring of the most recent events. Emission
// is O(1) and allocation-free after the ring fills, so tracing a long
// run keeps only the tail the operator asked for.
type Trace struct {
	cap   int
	ring  []Event
	next  int
	total uint64
}

// NewTrace returns a trace keeping the last n events (n >= 1).
func NewTrace(n int) *Trace {
	if n < 1 {
		n = 1
	}
	return &Trace{cap: n}
}

// Emit records one event, evicting the oldest once the ring is full.
func (t *Trace) Emit(at sim.Time, kind, detail string) {
	e := Event{At: at, Kind: kind, Detail: detail}
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.next] = e
	}
	t.next = (t.next + 1) % t.cap
	t.total++
}

// Events returns the retained events oldest first.
func (t *Trace) Events() []Event {
	if len(t.ring) < t.cap {
		return append([]Event(nil), t.ring...)
	}
	out := make([]Event, 0, t.cap)
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Total returns how many events were emitted over the trace's
// lifetime, including evicted ones.
func (t *Trace) Total() uint64 { return t.total }

// Write renders the retained events as one line each
// ("t=<ns> <kind> <detail>"), preceded by a summary header.
func (t *Trace) Write(w io.Writer) {
	evs := t.Events()
	fmt.Fprintf(w, "trace: %d events emitted, last %d retained\n", t.total, len(evs))
	for _, e := range evs {
		if e.Detail == "" {
			fmt.Fprintf(w, "t=%-12d %s\n", int64(e.At), e.Kind)
			continue
		}
		fmt.Fprintf(w, "t=%-12d %-12s %s\n", int64(e.At), e.Kind, e.Detail)
	}
}

// EnableTrace attaches a ring trace of capacity n to the registry.
// Emissions before EnableTrace are dropped (Tracing reports false).
func (r *Registry) EnableTrace(n int) *Trace {
	r.trace = NewTrace(n)
	return r.trace
}

// Trace returns the attached trace, or nil when tracing is off.
func (r *Registry) Trace() *Trace {
	if r == nil {
		return nil
	}
	return r.trace
}

// Tracing reports whether events should be formatted and emitted. It
// is nil-safe so instrumented code can guard fmt.Sprintf work with a
// single cheap check even when no registry is attached.
func (r *Registry) Tracing() bool {
	return r != nil && r.trace != nil
}

// Emit records one trace event. Nil-safe no-op when the receiver is
// nil or tracing is disabled, so call sites need no guards (though
// hot paths should still check Tracing before building detail
// strings).
func (r *Registry) Emit(at sim.Time, kind, detail string) {
	if r == nil || r.trace == nil {
		return
	}
	r.trace.Emit(at, kind, detail)
}
