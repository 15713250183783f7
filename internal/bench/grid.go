package bench

import (
	"repro/internal/result"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// A grid is one experiment's enumeration: every runner builds its
// points through one, and nothing else in the package adds a point to
// a sweep. It owns the sweep.Set, the tables the merges fill (in
// creation order), and the two things every point takes from the Env:
// the seed offset and the quick windows. A runner keeps only its axes
// and its merges.
type grid struct {
	env    Env
	set    sweep.Set
	tables []*result.Table
}

func newGrid(env Env) *grid { return &grid{env: env} }

// table creates a result table that run returns, in creation order.
func (g *grid) table(id, title, xlabel string) *result.Table {
	t := result.NewTable(id, title, xlabel)
	g.tables = append(g.tables, t)
	return t
}

// run executes the points on env.Sweeper and returns the tables, which
// the merges have filled.
func (g *grid) run() []result.Table {
	g.env.Sweeper.Run(&g.set)
	out := make([]result.Table, len(g.tables))
	for i, t := range g.tables {
		out[i] = *t
	}
	return out
}

// A point is a config the grid can run: run executes it at the given
// seed, in quick windows when quick is set.
type point[R any] interface {
	run(seed int64, quick bool) R
}

// add enumerates one point. Its seed is base + env.Seed: the one value
// that is both the point's audit seed and the config's Seed, so no
// runner writes a seed twice. merge (which may be nil) consumes the
// result in enumeration order.
func add[C point[R], R any](g *grid, label string, base int64, cfg C, merge func(R)) {
	seed, quick := base+g.env.Seed, g.env.Quick
	sweep.Add(&g.set, label, seed, cfg, func(c C) R { return c.run(seed, quick) }, merge)
}

// quickWindows shrinks an app config's measurement windows for quick
// sweeps; adaptation still converges (warmup covers the scaled tuner
// epoch and ~12 γ windows).
func quickWindows(quick bool) (warmup, measure sim.Time) {
	if quick {
		return 3 * sim.Millisecond, 2 * sim.Millisecond
	}
	return 0, 0 // runner defaults (5 ms / 4 ms)
}

// The three application points run in quick windows: they replace
// whatever the config carried. A micro point keeps its own windows.

func (c MicroConfig) run(seed int64, _ bool) MicroResult {
	c.Seed = seed
	return RunMicro(c)
}

func (c HTConfig) run(seed int64, quick bool) HTResult {
	c.Seed = seed
	c.Warmup, c.Measure = quickWindows(quick)
	return RunHT(c)
}

func (c BTConfig) run(seed int64, quick bool) BTResult {
	c.Seed = seed
	c.Warmup, c.Measure = quickWindows(quick)
	return RunBT(c)
}

func (c DTXConfig) run(seed int64, quick bool) DTXResult {
	c.Seed = seed
	c.Warmup, c.Measure = quickWindows(quick)
	return RunDTX(c)
}

// A serving point runs in RunServe's windows (400 µs / 2 ms), shorter
// in quick sweeps.
func (c ServeConfig) run(seed int64, quick bool) ServeResult {
	c.Seed = seed
	if quick {
		c.Warmup, c.Measure = 200*sim.Microsecond, sim.Millisecond
	}
	return RunServe(c)
}
