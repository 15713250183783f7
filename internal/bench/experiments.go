package bench

import (
	"sort"

	"repro/internal/arrival"
	"repro/internal/fault"
	"repro/internal/result"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/verbs"
)

// Env is everything an experiment's Run takes from its caller — the
// one path from a CLI flag (or a test) to a simulation.
type Env struct {
	// Sweeper's worker pool executes the points Run enumerates.
	Sweeper *sweep.Sweeper
	// Seed offsets every built-in seed; 0 reproduces the published
	// numbers and the golden files.
	Seed int64
	// Telemetry, when non-nil, is the registry an Instrumented
	// experiment fills during its one run. It changes no returned
	// table: the caller exports it with Telemetry.Tables("").
	Telemetry *telemetry.Registry
	// Quick trades sweep density for runtime (used by the testing.B
	// wrappers and the shape-check gate); the full sweep is the CLI
	// default.
	Quick bool
	// The three templates, each parsed by its own grammar and read by
	// one experiment. Faults is chaos's injected plan (-faults; nil
	// means fault.Default()). Arrival is the arrival process serving
	// rescales per point (-arrival; nil means the calibrated Poisson
	// default). Batching holds the batch=/deadline= overrides the
	// batching ablation applies to its swept modes (-batching): a knob
	// it leaves zero keeps the sweep's threshold and the runtime's
	// default deadline, so the zero value changes nothing.
	Faults   *fault.Plan
	Arrival  *arrival.Spec
	Batching verbs.Batching
}

// Experiment is one reproducible table or figure from the paper.
type Experiment struct {
	ID    string
	Title string
	// Category groups the experiment in `smartbench -list`: "figures"
	// (the default — the paper's tables and figures), "ablations",
	// "chaos", or "serving".
	Category string
	// Instrumented marks experiments that read software Neo-Host
	// telemetry: Run with a non-nil env.Telemetry fills that registry
	// during the same run and returns the same tables. The other
	// experiments never read env.Telemetry, so callers gate on this
	// field.
	Instrumented bool
	// Validate, when set, reports an env that some point of Run could
	// not execute, so the caller can refuse it before any sweep time is
	// spent. Only serving sets it: an -arrival template can be rescaled
	// past the arrival model's rate cap.
	Validate func(env Env) error
	// Run executes the experiment and returns its typed tables (one
	// per panel). The body enumerates the sweep's points through a
	// grid (grid.go) and executes them on env.Sweeper — points run on
	// its worker pool, results merge in enumeration order, so the
	// returned tables are byte-identical for every worker count.
	Run func(env Env) []result.Table
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

// threadGrid returns the paper's thread-count sweep (or a sparse one).
func threadGrid(quick bool) []int {
	if quick {
		return []int{8, 48, 96}
	}
	return []int{4, 8, 16, 24, 32, 48, 64, 80, 96}
}

// us converts the sim.Time nanosecond clock into the microsecond
// latencies the tables report.
func us(t sim.Time) float64 { return float64(t) / 1e3 }
