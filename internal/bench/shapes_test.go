package bench

import (
	"strings"
	"testing"

	"repro/internal/result"
	"repro/internal/sweep"
)

// TestShapesQuick is the regression gate behind EXPERIMENTS.md: it
// runs the quick sweeps — on a GOMAXPROCS-wide sweeper, both to cut
// wall-clock on multi-core runners and to exercise the parallel
// scheduler in the tier-1 suite — and asserts that every encoded
// qualitative outcome of the paper still holds. The three most
// expensive checked sweeps (fig7, fig8, tab1) would push the package
// past go test's default 10-minute binary timeout on a single core, so
// they are left to CI's `smartbench -exp all -quick -check` step, which
// gates every checked experiment.
func TestShapesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real quick sweeps")
	}
	for _, id := range []string{"fig4", "fig3", "fig13", "fig14", "chaos", "serving", "batching"} {
		t.Run(id, func(t *testing.T) {
			e := ByID(id)
			if e == nil {
				t.Fatalf("experiment %q not registered", id)
			}
			tables := e.Run(quickEnv(sweep.New(0)))
			for _, v := range Check(id, tables) {
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
		names := CheckNames(id)
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
	if got := CheckedExperiments(); len(got) != len(required) {
		t.Errorf("CheckedExperiments() = %v", got)
	}
	// Every checked ID must be a registered experiment.
	for _, id := range CheckedExperiments() {
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
