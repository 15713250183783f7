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
// seed, in quick windows when quick is set, and returns its result and
// its event fingerprint. Nothing else crosses the point's boundary: the
// config goes in by value, and the result and fingerprint come out.
type point[R any] interface {
	run(seed int64, quick bool) (R, uint64)
}

// ran is what a point's exec hands its merge.
type ran[R any] struct {
	result      R
	fingerprint uint64
}

// add enumerates one point. Its seed is base + env.Seed: the one value
// that is both the point's audit seed and the config's Seed, so no
// runner writes a seed twice. merge (which may be nil) consumes the
// result in enumeration order, and then env.Fingerprints, when set,
// receives the point's event fingerprint.
func add[C point[R], R any](g *grid, label string, base int64, cfg C, merge func(R)) {
	seed, quick, observe := base+g.env.Seed, g.env.Quick, g.env.Fingerprints
	sweep.Add(&g.set, label, seed, cfg, func(c C) ran[R] {
		r, fp := c.run(seed, quick)
		return ran[R]{r, fp}
	}, func(out ran[R]) {
		if merge != nil {
			merge(out.result)
		}
		if observe != nil {
			observe(label, out.fingerprint)
		}
	})
}

// foldFingerprint folds one engine's event fingerprint into a point's
// with an FNV-1a step. A point's fingerprint is the fold from 0 over
// the engines it runs, in run order: chaos's faulted run and its storm
// give one value.
func foldFingerprint(acc, engine uint64) uint64 { return (acc ^ engine) * 0x100000001b3 }

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

func (c MicroConfig) run(seed int64, _ bool) (MicroResult, uint64) {
	c.Seed = seed
	r := RunMicro(c)
	return r, foldFingerprint(0, r.Fingerprint)
}

func (c HTConfig) run(seed int64, quick bool) (HTResult, uint64) {
	c.Seed = seed
	c.Warmup, c.Measure = quickWindows(quick)
	r := RunHT(c)
	return r, foldFingerprint(0, r.Fingerprint)
}

func (c BTConfig) run(seed int64, quick bool) (BTResult, uint64) {
	c.Seed = seed
	c.Warmup, c.Measure = quickWindows(quick)
	r := RunBT(c)
	return r, foldFingerprint(0, r.Fingerprint)
}

func (c DTXConfig) run(seed int64, quick bool) (DTXResult, uint64) {
	c.Seed = seed
	c.Warmup, c.Measure = quickWindows(quick)
	r := RunDTX(c)
	return r, foldFingerprint(0, r.Fingerprint)
}

// A serving point runs in RunServe's windows (400 µs / 2 ms), shorter
// in quick sweeps.
func (c ServeConfig) run(seed int64, quick bool) (ServeResult, uint64) {
	c.Seed = seed
	if quick {
		c.Warmup, c.Measure = 200*sim.Microsecond, sim.Millisecond
	}
	r := RunServe(c)
	return r, foldFingerprint(0, r.Fingerprint)
}
