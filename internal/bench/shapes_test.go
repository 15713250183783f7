package bench

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/result"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// quickOutcome is one experiment's shared quick run: its tables, when
// it is instrumented its registry's export, and one "label fingerprint"
// line per point (Env.Fingerprints), in enumeration order.
type quickOutcome struct {
	once   sync.Once
	tables []result.Table
	telem  []result.Table
	fps    []string
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
// TestShapeChecksOnGoldens judges their checks on those goldens.
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
		env.Fingerprints = func(label string, fp uint64) {
			o.fps = append(o.fps, fmt.Sprintf("%s %016x", label, fp))
		}
		if e.Instrumented {
			env.Telemetry = telemetry.New()
		}
		o.tables = e.Run(env)
		if env.Telemetry != nil {
			o.telem = env.Telemetry.Tables()
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
			for _, v := range violations(Check(id, quickRun(t, id).tables)) {
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
	// smartbench judges the telemetry checks only on a registry's
	// export, and only instrumented experiments fill one: a telemetry
	// check on any other experiment would never run.
	for _, c := range telemetryShapeChecks {
		if !strings.HasPrefix(c.name, "telemetry/"+c.exp+"/") {
			t.Errorf("telemetry check %q not namespaced under telemetry/%s/", c.name, c.exp)
		}
		if seen[c.name] {
			t.Errorf("duplicate check name %q", c.name)
		}
		seen[c.name] = true
		if e := ByID(c.exp); e == nil || !e.Instrumented {
			t.Errorf("telemetry check %q reads %q, which is not a registered instrumented experiment", c.name, c.exp)
		}
	}
}

func TestCheckMissingDataIsViolation(t *testing.T) {
	// An experiment that stops emitting the series a check consumes
	// must fail the gate, not silently pass it.
	vs := violations(Check("fig3", nil))
	if len(vs) == 0 {
		t.Fatal("empty tables passed the fig3 checks")
	}
	for _, v := range vs {
		if !strings.Contains(v.Detail, "missing data") {
			t.Errorf("violation %s does not flag missing data: %s", v.Check, v.Detail)
		}
	}
}

// TestJudgeClauses pins judge's rules on hand-built checks: a check
// with no clause fails, the detail words the first failing clause, and
// the margin is the smallest relative distance to failing, ±1 for a
// bound of 0.
func TestJudgeClauses(t *testing.T) {
	checks := []shapeCheck{
		{"x", "x/silent", func(v *tv) {}},
		{"x", "x/holds", func(v *tv) {
			v.atLeast("a", 3, 2, 1)   // 3 >= 2: margin 0.5
			v.atMost("b", 1, 2, 2)    // 1 <= 4: margin 0.75
			v.above("c", 5, 0, 1)     // 5 > 0: bound 0, margin 1
			v.atMost("d", 0, 0, 1)    // 0 <= 0: bound 0, margin 1
			v.atLeast("e", -1, 1, -2) // -1 >= -2: margin 0.5
		}},
		{"x", "x/fails", func(v *tv) {
			v.atLeast("ok", 2, 1, 1)
			v.atMost("first", 3, 2, 1.25)
			v.above("second", 0, 0, 1) // fails too; bound 0, margin -1
		}},
		{"x", "x/missing", func(v *tv) { v.atLeast("m", v.at("t", "s", 1), 1, 1) }},
	}
	got := judge(checks, "x", nil)
	want := []Verdict{
		{"x/silent", "no comparison recorded", math.Inf(1)},
		{"x/holds", "", 0.5},
		{"x/fails", "first: 3 (need <= 2 × 1.25 = 2.5)", -1},
		{"x/missing", "missing data: t[s @ 1]", -1},
	}
	if !slices.Equal(got, want) {
		t.Errorf("judge = %v, want %v", got, want)
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
	if vs := violations(Check("fig4", syntheticFig4())); len(vs) != 0 {
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
	vs := violations(Check("fig4", broken))
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

// violations returns the verdicts that failed.
func violations(vs []Verdict) []Verdict {
	var out []Verdict
	for _, v := range vs {
		if v.Detail != "" {
			out = append(out, v)
		}
	}
	return out
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
