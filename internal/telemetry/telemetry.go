// Package telemetry is the reproduction's software Neo-Host: a
// deterministic registry of named counters and x/y series, plus an
// optional ring-buffered event trace, that the simulated layers fill
// in where the paper reads Mellanox hardware counters.
//
// Determinism is the design constraint. Counters and series groups are
// stored in registration order and exported by iterating slices — maps
// exist only as name→index lookups and are never ranged — so the same
// run always renders the same bytes. Values derive exclusively from
// simulation state (sim.Time timestamps, event-ordered increments):
// two runs with equal seeds produce byte-identical telemetry
// documents, which is what the CI determinism gate compares.
//
// Snapshots export through the internal/result table schema
// (Registry.Tables), so telemetry rides the existing text and JSON
// renderers and the shape-check machinery for free.
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

import "repro/internal/result"

// Counter is one monotonically written named counter. Handles are
// stable: registering the same name twice returns the same counter.
type Counter struct {
	Name string
	v    uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Set overwrites the value. Used for idempotent harvests of state
// shared between collectors (e.g. engine-wide scheduler counts that
// several runtimes on one engine would otherwise double-add).
func (c *Counter) Set(n uint64) { c.v = n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Point is one series sample.
type Point struct {
	X float64
	V float64
}

// Series is one named column of a group: an append-only list of
// (x, value) samples in record order.
type Series struct {
	Name string
	Unit string
	Prec int
	pts  []Point
}

// Record appends one sample.
func (s *Series) Record(x, v float64) { s.pts = append(s.pts, Point{X: x, V: v}) }

// Len returns the number of recorded samples.
func (s *Series) Len() int { return len(s.pts) }

// Group is one exported table: a shared x axis and the series recorded
// against it, in registration order.
type Group struct {
	ID     string
	Title  string
	XLabel string
	XUnit  string
	YUnit  string
	Prec   int

	series []*Series
	index  map[string]int
}

// Series returns the named series, registering it with the group's
// default precision on first use.
func (g *Group) Series(name string) *Series { return g.SeriesDef(name, "", 0) }

// SeriesDef returns the named series, registering it with an explicit
// unit and precision on first use (later calls keep the first
// definition).
func (g *Group) SeriesDef(name, unit string, prec int) *Series {
	if i, ok := g.index[name]; ok {
		return g.series[i]
	}
	s := &Series{Name: name, Unit: unit, Prec: prec}
	g.index[name] = len(g.series)
	g.series = append(g.series, s)
	return s
}

// Registry is the software Neo-Host: every counter, series group, and
// (optionally) the event trace of one instrumented run.
type Registry struct {
	counters []*Counter
	cindex   map[string]int
	groups   []*Group
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

// Group returns the named series group, registering it on first use
// (later calls keep the first identity fields).
func (r *Registry) Group(id, title, xlabel string) *Group {
	if i, ok := r.gindex[id]; ok {
		return r.groups[i]
	}
	g := &Group{ID: id, Title: title, XLabel: xlabel, index: make(map[string]int)}
	r.gindex[id] = len(r.groups)
	r.groups = append(r.groups, g)
	return g
}

// Tables exports the registry as result tables: one "counters" table
// (one labeled row per counter, in registration order) followed by one
// table per group. prefix, when non-empty, namespaces every table ID
// as "<prefix>-<id>" so several registries can share one document.
func (r *Registry) Tables(prefix string) []result.Table {
	var out []result.Table
	if len(r.counters) > 0 {
		t := result.NewTable(joinID(prefix, "counters"),
			"Telemetry counters (software Neo-Host totals)", "counter")
		t.Prec = 0
		t.Def("value", "", 0)
		for i, c := range r.counters {
			t.AddLabeled("value", float64(i), c.Name, float64(c.Value()))
		}
		out = append(out, *t)
	}
	for _, g := range r.groups {
		t := result.NewTable(joinID(prefix, g.ID), g.Title, g.XLabel)
		t.XUnit, t.YUnit = g.XUnit, g.YUnit
		if g.Prec > 0 {
			t.Prec = g.Prec
		}
		for _, s := range g.series {
			t.Def(s.Name, s.Unit, s.Prec)
			for _, p := range s.pts {
				t.Add(s.Name, p.X, p.V)
			}
		}
		out = append(out, *t)
	}
	return out
}

func joinID(prefix, id string) string {
	if prefix == "" {
		return id
	}
	return prefix + "-" + id
}
