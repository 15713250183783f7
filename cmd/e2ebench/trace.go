package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed call group of a staged replica. parent is the
// index of the enclosing span (-1 for a point's root span); spans of
// one point share its root.
type span struct {
	name       string
	parent     int
	start, end time.Duration // offsets from the tracer's epoch
}

// tracer keeps spans in memory; nothing is written until the run ends.
// A nil *tracer records nothing, which is the untraced replica.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].end = time.Since(t.epoch)
		t.open = t.open[:len(t.open)-1]
	}
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace-event JSON ("X"
// complete events, microsecond timestamps), loadable in
// chrome://tracing or ui.perfetto.dev. tid is the index of the span's
// root, so each point gets its own track.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		root := i
		for t.spans[root].parent >= 0 {
			root = t.spans[root].parent
		}
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: root,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"span": i, "parent": s.parent},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
