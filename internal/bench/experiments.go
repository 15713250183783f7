package bench

import (
	"sort"

	"repro/internal/result"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Experiment is one reproducible table or figure from the paper.
type Experiment struct {
	ID    string
	Title string
	// Category groups the experiment in `smartbench -list`: "figures"
	// (the default — the paper's tables and figures), "ablations",
	// "chaos", or "serving".
	Category string
	// Run executes the experiment and returns its typed tables (one
	// per panel). The body enumerates the sweep's points into a
	// sweep.Set and executes them through sw — points run on sw's
	// worker pool, results merge in enumeration order, so the returned
	// tables are byte-identical for every worker count. quick trades
	// sweep density for runtime (used by the testing.B wrappers and
	// the shape-check gate); the full sweep is the CLI default. seed
	// offsets every built-in workload seed — 0 reproduces the
	// published numbers and the golden files.
	Run func(sw *sweep.Sweeper, quick bool, seed int64) []result.Table
}

// RunSeq executes the experiment on a single worker — the historical
// sequential semantics, and the reference the parallel goldens are
// compared against.
func (e *Experiment) RunSeq(quick bool, seed int64) []result.Table {
	return e.Run(sweep.Sequential(), quick, seed)
}

// registry holds all experiments, keyed by ID. Populated only from
// package init funcs and read-only afterwards, so concurrent sweep
// points may look experiments up freely.
//
//smartlint:ignore sharedstate — written only during init, read-only while sweeps run
var registry = map[string]*Experiment{}

func register(e *Experiment) {
	if e.Category == "" {
		e.Category = "figures"
	}
	registry[e.ID] = e
}

// Categories returns the -list grouping order. Only categories with
// registered experiments render.
func Categories() []string { return []string{"figures", "ablations", "chaos", "serving"} }

// ByID returns the experiment with the given ID, or nil.
func ByID(id string) *Experiment { return registry[id] }

// All returns every experiment in ID order.
func All() []*Experiment {
	ids := make([]string, 0, len(registry))
	//smartlint:ignore maporder — ids are sorted on the next line
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Experiment, len(ids))
	for i, id := range ids {
		out[i] = registry[id]
	}
	return out
}

// TelemetryRunner executes an experiment's instrumented variant: a
// representative run (or small sweep, executed through sw like the
// base experiment) with a telemetry registry attached, returning the
// registry's exported tables. trace > 0 enables an event ring of that
// capacity on the registry.
type TelemetryRunner func(sw *sweep.Sweeper, quick bool, seed int64, trace int) (*telemetry.Registry, []result.Table)

// telemetryRunners is kept separate from the experiment registry so
// registration order cannot depend on file-init order; runners are
// looked up by experiment ID at call time. Like registry, it is
// written only during init.
//
//smartlint:ignore sharedstate — written only during init, read-only while sweeps run
var telemetryRunners = map[string]TelemetryRunner{}

func registerTelemetry(id string, r TelemetryRunner) { telemetryRunners[id] = r }

// HasTelemetry reports whether the experiment has an instrumented
// variant.
func HasTelemetry(id string) bool { return telemetryRunners[id] != nil }

// TelemetryExperiments returns the IDs with instrumented variants, in
// ID order.
func TelemetryExperiments() []string {
	ids := make([]string, 0, len(telemetryRunners))
	//smartlint:ignore maporder — ids are sorted on the next line
	for id := range telemetryRunners {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// RunTelemetry executes the instrumented variant of experiment id on
// sw's worker pool. The boolean is false when the experiment has none.
func RunTelemetry(sw *sweep.Sweeper, id string, quick bool, seed int64, trace int) (*telemetry.Registry, []result.Table, bool) {
	r := telemetryRunners[id]
	if r == nil {
		return nil, nil, false
	}
	reg, tables := r(sw, quick, seed, trace)
	return reg, tables, true
}

// threadGrid returns the paper's thread-count sweep (or a sparse one).
func threadGrid(quick bool) []int {
	if quick {
		return []int{8, 48, 96}
	}
	return []int{4, 8, 16, 24, 32, 48, 64, 80, 96}
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

// htPoint, btPoint, and dtxPoint bind quick into the config→result
// run funcs that sweep.Add expects when enumerating app points: the
// quick-mode windows replace whatever the point's config carried.
func htPoint(quick bool) func(HTConfig) HTResult {
	return func(cfg HTConfig) HTResult {
		cfg.Warmup, cfg.Measure = quickWindows(quick)
		return RunHT(cfg)
	}
}

func btPoint(quick bool) func(BTConfig) BTResult {
	return func(cfg BTConfig) BTResult {
		cfg.Warmup, cfg.Measure = quickWindows(quick)
		return RunBT(cfg)
	}
}

func dtxPoint(quick bool) func(DTXConfig) DTXResult {
	return func(cfg DTXConfig) DTXResult {
		cfg.Warmup, cfg.Measure = quickWindows(quick)
		return RunDTX(cfg)
	}
}

// collect dereferences the tables accumulated during enumeration,
// after the sweep's merges have filled them.
func collect(ts []*result.Table) []result.Table {
	out := make([]result.Table, len(ts))
	for i, t := range ts {
		out[i] = *t
	}
	return out
}

// usPerNs converts the sim.Time nanosecond clock into the microsecond
// latencies the tables report.
func us(t sim.Time) float64 { return float64(t) / 1e3 }
