package bench

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/result"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// quickOutcome is one experiment's shared quick run: its tables and,
// when it is instrumented, its registry's export.
type quickOutcome struct {
	once   sync.Once
	tables []result.Table
	telem  []result.Table
}

//smartlint:ignore sharedstate — test memo of finished runs, guarded by its mutex
var quickRuns struct {
	sync.Mutex
	m map[string]*quickOutcome
}

// quickIDs returns the experiments the test binary runs through quickRun.
// The three most expensive checked sweeps (fig7, fig8, tab1) would push
// the package past go test's default 10-minute binary timeout on a
// single core, so they and the unchecked experiments are left to CI's
// `smartbench -exp all -quick -check` step, which gates every checked
// experiment and cmps every table against the quick goldens.
func quickIDs() []string {
	return []string{"fig4", "fig3", "fig13", "fig14", "chaos", "serving", "batching"}
}

// quickRun runs experiment id once per test binary, at quick density on
// a GOMAXPROCS-wide sweeper — both to cut wall-clock on multi-core
// runners and to exercise the parallel scheduler (and the
// probe-registry isolation, under -race) in the tier-1 suite. An
// instrumented experiment runs with a registry, as smartbench runs it.
// TestShapesQuick checks the tables' shapes and TestTelemetryShapes the
// registry export's; TestQuickGolden holds both to the quick goldens,
// which the CLI wrote with a registry on its own worker count.
func quickRun(t *testing.T, id string) *quickOutcome {
	t.Helper()
	e := ByID(id)
	if e == nil {
		t.Fatalf("experiment %q not registered", id)
	}
	quickRuns.Lock()
	o := quickRuns.m[id]
	if o == nil {
		if quickRuns.m == nil {
			quickRuns.m = map[string]*quickOutcome{}
		}
		o = &quickOutcome{}
		quickRuns.m[id] = o
	}
	quickRuns.Unlock()
	o.once.Do(func() {
		env := quickEnv(sweep.New(0))
		if e.Instrumented {
			env.Telemetry = telemetry.New()
		}
		o.tables = e.Run(env)
		if env.Telemetry != nil {
			o.telem = env.Telemetry.Tables("")
		}
	})
	return o
}

// TestShapesQuick is the regression gate behind EXPERIMENTS.md: it
// runs the quickIDs sweeps through quickRun and asserts that every
// encoded qualitative outcome of the paper still holds.
func TestShapesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real quick sweeps")
	}
	for _, id := range quickIDs() {
		t.Run(id, func(t *testing.T) {
			for _, v := range Check(id, quickRun(t, id).tables) {
				t.Errorf("shape violation %s: %s", v.Check, v.Detail)
			}
		})
	}
}

func TestCheckRegistry(t *testing.T) {
	// The required coverage: at least 10 named checks spanning the
	// experiments EXPERIMENTS.md calls out.
	required := []string{"fig3", "fig4", "fig7", "fig8", "fig13", "tab1", "fig14", "chaos", "serving", "batching"}
	total := 0
	seen := map[string]bool{}
	for _, id := range required {
		names := checkNames(id)
		if len(names) == 0 {
			t.Errorf("experiment %s has no shape checks", id)
		}
		for _, n := range names {
			if !strings.HasPrefix(n, id+"/") {
				t.Errorf("check %q not namespaced under %s/", n, id)
			}
			if seen[n] {
				t.Errorf("duplicate check name %q", n)
			}
			seen[n] = true
		}
		total += len(names)
	}
	if total < 10 {
		t.Errorf("only %d shape checks registered, want >= 10", total)
	}
	if got := checkedExperiments(); len(got) != len(required) {
		t.Errorf("checkedExperiments() = %v", got)
	}
	// Every checked ID must be a registered experiment.
	for _, id := range checkedExperiments() {
		if ByID(id) == nil {
			t.Errorf("checks reference unknown experiment %q", id)
		}
	}
}

func TestCheckMissingDataIsViolation(t *testing.T) {
	// An experiment that stops emitting the series a check consumes
	// must fail the gate, not silently pass it.
	vs := Check("fig3", nil)
	if len(vs) == 0 {
		t.Fatal("empty tables passed the fig3 checks")
	}
	for _, v := range vs {
		if !strings.Contains(v.Detail, "missing data") {
			t.Errorf("violation %s does not flag missing data: %s", v.Check, v.Detail)
		}
	}
}

func TestCheckUncheckedExperiment(t *testing.T) {
	if vs := Check("fig5", nil); vs != nil {
		t.Fatalf("fig5 has no checks but returned %v", vs)
	}
}

// syntheticFig4 builds fig4 tables that satisfy every fig4 predicate.
func syntheticFig4() []result.Table {
	a := result.NewTable("fig4a", "MOPS", "threads")
	b := result.NewTable("fig4b", "DMA", "threads")
	for _, row := range []struct {
		owr      string
		t36, t96 float64
		d36, d96 float64
	}{
		{"owr=2", 20, 54, 95, 95},
		{"owr=8", 64, 102, 95, 95},
		{"owr=32", 102, 55, 95, 178},
	} {
		a.Add(row.owr, 36, row.t36)
		a.Add(row.owr, 96, row.t96)
		b.Add(row.owr, 36, row.d36)
		b.Add(row.owr, 96, row.d96)
	}
	return []result.Table{*a, *b}
}

func TestCheckPredicatesOnSyntheticTables(t *testing.T) {
	if vs := Check("fig4", syntheticFig4()); len(vs) != 0 {
		t.Fatalf("healthy synthetic fig4 flagged: %v", vs)
	}

	// Break the thrashing shape: deep batches no longer hurt.
	broken := syntheticFig4()
	tb := result.Find(broken, "fig4a")
	for i := range tb.Series {
		if tb.Series[i].Name == "owr=32" {
			for j := range tb.Series[i].Points {
				if tb.Series[i].Points[j].X == 96 {
					tb.Series[i].Points[j].Value = 101
				}
			}
		}
	}
	vs := Check("fig4", broken)
	if len(vs) == 0 {
		t.Fatal("flattened 96x32 point passed the thrashing check")
	}
	found := false
	for _, v := range vs {
		if v.Check == "fig4/thrash-halves-96x32" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected fig4/thrash-halves-96x32 violation, got %v", vs)
	}
}

// checkNames returns the names of the checks registered for id.
func checkNames(id string) []string {
	var out []string
	for _, c := range shapeChecks {
		if c.exp == id {
			out = append(out, c.name)
		}
	}
	return out
}

// checkedExperiments returns the IDs that have shape checks, sorted.
func checkedExperiments() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range shapeChecks {
		if !seen[c.exp] {
			seen[c.exp] = true
			out = append(out, c.exp)
		}
	}
	sort.Strings(out)
	return out
}
