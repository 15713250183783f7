package bench

import (
	"strings"
	"testing"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/verbs"
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

// TestServingValidate pins the one Validate hook: it rescales the
// arrival template to every point's load and refuses the first point
// that lands past the arrival rate cap, naming it. The default template
// passes at both densities; the default MMPP burst passes the quick
// grid but not the full grid's heaviest load; a 1000x on-phase over a
// mean of 1 op/us already breaks the lightest quick load.
func TestServingValidate(t *testing.T) {
	e := ByID("serving")
	for _, tc := range []struct {
		template        string // "" = the calibrated Poisson default
		wantQ, wantFull string // "" = accepted, else the error's prefix
	}{
		{"", "", ""},
		{"poisson", "", ""},
		{"poisson:rate=0.25", "", ""},
		{"mmpp", "", "topology 4x32 at load 2.5: "},
		{"mmpp:high=4,low=1,on=200us,off=600us", "", ""},
		{"mmpp:high=1000,low=0,on=1us,off=999us", "topology 1x8 at load 0.25: ", "topology 1x8 at load 0.25: "},
		{"trace:gaps=1us+2us+500ns", "", ""},
		{"trace:gaps=1us", "", ""},
	} {
		name := tc.template
		if name == "" {
			name = "default"
		}
		t.Run(name, func(t *testing.T) {
			var a *arrival.Spec
			if tc.template != "" {
				var err error
				if a, err = arrival.Parse(tc.template); err != nil {
					t.Fatal(err)
				}
			}
			for _, d := range []struct {
				quick bool
				want  string
			}{{true, tc.wantQ}, {false, tc.wantFull}} {
				err := e.Validate(Env{Quick: d.quick, Arrival: a})
				switch {
				case d.want == "" && err != nil:
					t.Errorf("quick=%v: rejected: %v", d.quick, err)
				case d.want != "" && (err == nil || !strings.HasPrefix(err.Error(), d.want)):
					t.Errorf("quick=%v: Validate = %v, want an error starting %q", d.quick, err, d.want)
				}
			}
		})
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

// TestBatchingTemplateKeepsSweptThreshold pins that a -batching
// template overrides only the knobs it names: a spec without batch=
// leaves every swept point's coalesce threshold where the zero template
// puts it, and a deadline= reaches the point as written.
func TestBatchingTemplateKeepsSweptThreshold(t *testing.T) {
	for _, spec := range []string{"coalesce", "both", "coalesce:deadline=4us"} {
		knobs, err := verbs.ParseBatching(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range batchingModes() {
			// The depth grid; it holds the thread and C_max panels'
			// thresholds (16 and 8) too.
			for _, b := range []int{2, 4, 8, 16, 32} {
				got, want := batchingFor(knobs, m.b, b), batchingFor(verbs.Batching{}, m.b, b)
				if got.CoalesceBatch != want.CoalesceBatch {
					t.Errorf("-batching %s, %s, batch %d: CoalesceBatch %d, want %d",
						spec, m.name, b, got.CoalesceBatch, want.CoalesceBatch)
				}
				if m.b.Coalesce && got.FlushDeadline != knobs.FlushDeadline {
					t.Errorf("-batching %s, %s, batch %d: FlushDeadline %d, want %d",
						spec, m.name, b, got.FlushDeadline, knobs.FlushDeadline)
				}
			}
		}
	}
}
