// Package telemetry is the reproduction's software Neo-Host: a
// deterministic registry of named counters and x/y tables, plus an
// optional ring-buffered event trace, that the simulated layers fill
// in where the paper reads Mellanox hardware counters.
//
// Determinism is the design constraint. Counters and group tables are
// stored in registration order and exported by iterating slices — maps
// exist only as name→index lookups and are never ranged — so the same
// run always renders the same bytes. Values derive exclusively from
// simulation state (sim.Time timestamps, event-ordered increments):
// two runs with equal seeds produce byte-identical telemetry
// documents, which is what the CI determinism gate compares.
//
// A group is an internal/result table from the start (Registry.Group),
// and Registry.Tables exports copies of them, so telemetry rides the
// existing text and JSON renderers and the shape-check machinery for
// free.
//
// A Registry is deliberately not synchronized: the sweep scheduler
// (internal/sweep) runs experiment points concurrently, and the
// isolation rule is one registry per point — a point's run func writes
// only the registry it owns, and per-blade prefixes (TelemetryPrefix)
// namespace collectors *within* one point, never across points. When a
// family of runs must share a registry (the chaos faulted run and its
// CAS storm), those runs belong to a single point so their writes stay
// sequential. TestRegistryPerPointIsolation and the parallel bench
// sweeps under -race audit this contract.
package telemetry

import (
	"slices"

	"repro/internal/result"
)

// Counter is one named counter. Handles are stable: registering the
// same name twice returns the same counter.
type Counter struct {
	Name string
	v    uint64
}

// Set overwrites the value. It is the only write: a collector harvests
// its whole-run total once the run is over, so a harvest is idempotent
// (engine-wide scheduler counts that several runtimes on one engine
// share are set, never double-added).
func (c *Counter) Set(n uint64) { c.v = n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Registry is the software Neo-Host: every counter, group table, and
// (optionally) the event trace of one instrumented run.
type Registry struct {
	counters []*Counter
	cindex   map[string]int
	groups   []*result.Table
	gindex   map[string]int
	trace    *Trace
}

// New returns an empty registry with tracing disabled.
func New() *Registry {
	return &Registry{
		cindex: make(map[string]int),
		gindex: make(map[string]int),
	}
}

// Counter returns the named counter, registering it on first use.
// Registration order is the export order.
func (r *Registry) Counter(name string) *Counter {
	if i, ok := r.cindex[name]; ok {
		return r.counters[i]
	}
	c := &Counter{Name: name}
	r.cindex[name] = len(r.counters)
	r.counters = append(r.counters, c)
	return c
}

// Value returns the named counter's value, or 0 when it was never
// registered.
func (r *Registry) Value(name string) uint64 {
	if i, ok := r.cindex[name]; ok {
		return r.counters[i].Value()
	}
	return 0
}

// Group returns the table registered under id, registering it on
// first use (later calls keep the first identity fields). The registry
// owns the table, and the caller records into it with Def and Add: Add
// gives an undeclared series the table's precision (2 by default), so
// a column that wants another declares it with Def first.
func (r *Registry) Group(id, title, xlabel string) *result.Table {
	if i, ok := r.gindex[id]; ok {
		return r.groups[i]
	}
	t := result.NewTable(id, title, xlabel)
	r.gindex[id] = len(r.groups)
	r.groups = append(r.groups, t)
	return t
}

// Tables exports the registry as result tables: one "counters" table
// (one labeled row per counter, in registration order) followed by a
// copy of each group table, which the caller may change without
// writing into the registry.
func (r *Registry) Tables() []result.Table {
	var out []result.Table
	if len(r.counters) > 0 {
		t := result.NewTable("counters",
			"Telemetry counters (software Neo-Host totals)", "counter")
		t.Prec = 0
		t.Def("value", "", 0)
		for i, c := range r.counters {
			t.AddLabeled("value", float64(i), c.Name, float64(c.Value()))
		}
		out = append(out, *t)
	}
	for _, g := range r.groups {
		t := *g
		t.Series = slices.Clone(g.Series)
		for i := range t.Series {
			t.Series[i].Points = slices.Clone(t.Series[i].Points)
		}
		out = append(out, t)
	}
	return out
}
