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
// seed, in quick windows when quick is set, and folds its engines'
// event fingerprints into fp when fp is not nil.
type point[R any] interface {
	run(seed int64, quick bool, fp *uint64) R
}

// add enumerates one point. Its seed is base + env.Seed: the one value
// that is both the point's audit seed and the config's Seed, so no
// runner writes a seed twice. merge (which may be nil) consumes the
// result in enumeration order, and then env.Fingerprints, when set,
// receives the point's event fingerprint.
func add[C point[R], R any](g *grid, label string, base int64, cfg C, merge func(R)) {
	seed, quick, observe := base+g.env.Seed, g.env.Quick, g.env.Fingerprints
	var fp *uint64
	if observe != nil {
		fp = new(uint64)
	}
	//smartlint:ignore pointisolation — fp is this point's own sink: add allocates it per point, only this exec writes it, and only this point's merge reads it, after the exec completes
	sweep.Add(&g.set, label, seed, cfg, func(c C) R { return c.run(seed, quick, fp) }, func(r R) {
		if merge != nil {
			merge(r)
		}
		if observe != nil {
			observe(label, *fp)
		}
	})
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

func (c MicroConfig) run(seed int64, _ bool, fp *uint64) MicroResult {
	c.Seed, c.fingerprint = seed, fp
	return RunMicro(c)
}

func (c HTConfig) run(seed int64, quick bool, fp *uint64) HTResult {
	c.Seed, c.fingerprint = seed, fp
	c.Warmup, c.Measure = quickWindows(quick)
	return RunHT(c)
}

func (c BTConfig) run(seed int64, quick bool, fp *uint64) BTResult {
	c.Seed, c.fingerprint = seed, fp
	c.Warmup, c.Measure = quickWindows(quick)
	return RunBT(c)
}

func (c DTXConfig) run(seed int64, quick bool, fp *uint64) DTXResult {
	c.Seed, c.fingerprint = seed, fp
	c.Warmup, c.Measure = quickWindows(quick)
	return RunDTX(c)
}

// A serving point runs in RunServe's windows (400 µs / 2 ms), shorter
// in quick sweeps.
func (c ServeConfig) run(seed int64, quick bool, fp *uint64) ServeResult {
	c.Seed, c.fingerprint = seed, fp
	if quick {
		c.Warmup, c.Measure = 200*sim.Microsecond, sim.Millisecond
	}
	return RunServe(c)
}
