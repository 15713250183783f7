package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/result"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	paper := []string{"fig3", "fig4", "fig5", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "tab1"}
	ablations := []string{"abl-db", "abl-wqe", "abl-gamma", "abl-t0", "abl-spec", "abl-payload", "batching"}
	extras := []string{"chaos", "serving"}
	all := append(append(append([]string{}, paper...), ablations...), extras...)
	for _, id := range all {
		if ByID(id) == nil {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if got := len(All()); got != len(all) {
		t.Errorf("registry has %d experiments, want %d", got, len(all))
	}
	if ByID("nope") != nil {
		t.Error("unknown ID resolved")
	}
}

func TestThreadGrid(t *testing.T) {
	full, quick := threadGrid(false), threadGrid(true)
	if len(quick) >= len(full) {
		t.Fatal("quick grid not smaller")
	}
	for _, g := range [][]int{full, quick} {
		last := 0
		for _, v := range g {
			if v <= last {
				t.Fatalf("grid not increasing: %v", g)
			}
			last = v
		}
	}
}

func TestHTTargetThrottling(t *testing.T) {
	free := RunHT(HTConfig{
		Opts: core.Smart(), ThreadsPerBlade: 16, Keys: 20_000,
		Theta: 0, Mix: workload.ReadOnly, Seed: 4,
		Warmup: 500 * sim.Microsecond, Measure: 2 * sim.Millisecond,
	})
	capped := RunHT(HTConfig{
		Opts: core.Smart(), ThreadsPerBlade: 16, Keys: 20_000,
		Theta: 0, Mix: workload.ReadOnly, Seed: 4,
		Warmup: 500 * sim.Microsecond, Measure: 2 * sim.Millisecond,
		TargetMOPS: free.MOPS / 4,
	})
	if capped.MOPS > free.MOPS/2 {
		t.Fatalf("throttle ineffective: free %.2f, capped %.2f", free.MOPS, capped.MOPS)
	}
}

func TestBTVariantStrings(t *testing.T) {
	if ShermanPlus.String() != "Sherman+" || ShermanPlusSL.String() != "Sherman+ w/SL" ||
		SmartBT.String() != "SMART-BT" || BTVariant(9).String() != "?" {
		t.Fatal("variant strings wrong")
	}
	if ShermanPlus.Speculative() || !SmartBT.Speculative() {
		t.Fatal("Speculative() wrong")
	}
}

func TestExperimentQuickSmoke(t *testing.T) {
	// Run one cheap experiment end to end and sanity-check the typed
	// tables plus their rendering. fig4-quick is the fastest
	// registered experiment.
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	tables := ByID("fig4").Run(quickEnv(sweep.Sequential()))
	if len(tables) != 2 {
		t.Fatalf("fig4 returned %d tables, want 2", len(tables))
	}
	for _, id := range []string{"fig4a", "fig4b"} {
		if result.Find(tables, id) == nil {
			t.Fatalf("missing table %q", id)
		}
	}
	if got := len(result.Find(tables, "fig4a").Series); got != 3 {
		t.Fatalf("fig4a quick grid has %d series, want 3 OWR columns", got)
	}
	if _, ok := result.Find(tables, "fig4a").Get("owr=8", 96); !ok {
		t.Fatal("fig4a missing the 96x8 point")
	}
	var buf bytes.Buffer
	result.Text(&buf, tables)
	out := buf.String()
	for _, want := range []string{"Fig. 4a", "Fig. 4b", "threads", "owr=8"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestGroupsForScalesWithKeys(t *testing.T) {
	if groupsFor(1_000) < 64 {
		t.Fatal("minimum groups not enforced")
	}
	if groupsFor(10_000_000) <= groupsFor(100_000) {
		t.Fatal("groups must grow with key count")
	}
}

func TestScaleAdaptationPreservesExplicit(t *testing.T) {
	o := core.Smart()
	o.UpdateDelta = 123 * sim.Nanosecond
	o.RetryWindow = 456 * sim.Nanosecond
	s := ScaleAdaptation(o)
	if s.UpdateDelta != 123 || s.RetryWindow != 456 {
		t.Fatal("explicit settings overridden")
	}
	s2 := ScaleAdaptation(core.Smart())
	if s2.UpdateDelta == 0 || s2.RetryWindow == 0 {
		t.Fatal("defaults not applied")
	}
}
