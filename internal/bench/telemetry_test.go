package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/result"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// quickEnv is the tests' standard environment: quick density, seed 0,
// no telemetry, default templates.
func quickEnv(sw *sweep.Sweeper) Env {
	return Env{Sweeper: sw, Quick: true}
}

// runInstrumented runs experiment id at quick density with a fresh
// registry carrying a trace ring of the given capacity (none when 0),
// the way smartbench does, and returns the registry and the tables.
func runInstrumented(sw *sweep.Sweeper, id string, trace int) (*telemetry.Registry, []result.Table) {
	env := quickEnv(sw)
	env.Telemetry = telemetry.New()
	if trace > 0 {
		env.Telemetry.EnableTrace(trace)
	}
	return env.Telemetry, ByID(id).Run(env)
}

// instrumentedIDs returns the instrumented experiments, in ID order.
func instrumentedIDs() []string {
	var ids []string
	for _, e := range All() {
		if e.Instrumented {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// telemetryDoc wraps a registry's export the way smartbench does, so
// byte comparisons cover the full rendered document.
func telemetryDoc(id string, tables []result.Table) *result.Document {
	return &result.Document{
		Generator: "smartbench-telemetry",
		Paper:     "SMART (ASPLOS 2024)",
		Quick:     true,
		Experiments: []result.Experiment{
			{ID: id, Title: ByID(id).Title, Tables: tables},
		},
	}
}

// TestTelemetryRegistry pins the instrumented set: exactly the five
// experiments that read the software Neo-Host are marked, unknown IDs
// report cleanly, and an unmarked experiment ignores a registry — same
// points enumerated, nothing recorded (checked on a probe, so nothing
// executes) — which is why callers gate on Instrumented.
func TestTelemetryRegistry(t *testing.T) {
	if got, want := strings.Join(instrumentedIDs(), " "), "chaos fig13 fig14 fig3 serving"; got != want {
		t.Errorf("instrumented experiments = %q, want %q", got, want)
	}
	if ByID("fig4").Instrumented {
		t.Error("fig4 should not have an instrumented variant")
	}
	if ByID("no-such-exp") != nil {
		t.Error("an unknown ID resolved to an experiment")
	}
	enumerate := func(reg *telemetry.Registry) []string {
		var labels []string
		env := quickEnv(sweep.Probe(func(s *sweep.Set) { labels = append(labels, s.Labels()...) }))
		env.Telemetry = reg
		ByID("fig4").Run(env)
		return labels
	}
	reg := telemetry.New()
	if plain, with := enumerate(nil), enumerate(reg); !reflect.DeepEqual(plain, with) {
		t.Errorf("fig4 enumerates different points with a registry:\n%v\n%v", plain, with)
	}
	if tables := reg.Tables(); len(tables) != 0 {
		t.Errorf("fig4 recorded %d telemetry tables into a registry it should ignore", len(tables))
	}
}

// TestTelemetryDeterminism is the same-seed contract on the telemetry
// layer: chaos's registry — the faulted run and the CAS storm harvest
// into it — filled sequentially and then on a 4-worker pool with the
// same seed and a 32-event trace ring attached, must render to
// byte-identical JSON and emit the same, non-zero number of trace
// events.
func TestTelemetryDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the chaos family twice")
	}
	render := func(sw *sweep.Sweeper) ([]byte, uint64) {
		reg, _ := runInstrumented(sw, "chaos", 32)
		return renderJSON(t, telemetryDoc("chaos", reg.Tables())), reg.Trace().Total()
	}
	j1, total1 := render(sweep.Sequential())
	j2, total2 := render(sweep.New(4))
	if !bytes.Equal(j1, j2) {
		t.Fatalf("sequential and 4-worker runs rendered different telemetry:\n--- sequential\n%s\n--- parallel\n%s", j1, j2)
	}
	if total1 != total2 {
		t.Errorf("trace event totals differ: %d vs %d", total1, total2)
	}
	if total1 == 0 {
		t.Error("instrumented chaos run emitted no trace events")
	}
}

// TestTelemetryShapes asserts every instrumented experiment's telemetry
// shape predicates on the registry export of its shared quick run, the
// CI gate's in-repo equivalent.
func TestTelemetryShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full instrumented sweeps")
	}
	for _, id := range instrumentedIDs() {
		t.Run(id, func(t *testing.T) {
			for _, v := range violations(CheckTelemetry(id, quickRun(t, id).telem)) {
				t.Errorf("%s: %s", v.Check, v.Detail)
			}
		})
	}
}

// TestRegistrySchedulesNoEvents pins DESIGN.md §10's rule (4) on the
// points that carry a registry in the instrumented experiments' quick
// runs: each runs with and without one. Recording schedules no engine
// event, so fig3's, fig13's, fig14's and chaos's points give the same
// result and the same fingerprint either way. serving's qdepth sampler
// is the one instrumentation that schedules events (Engine.Every), so
// its overloaded point gives the same ServeResult and a different
// fingerprint, pinned here. The registry-carrying run must read the
// fingerprint fingerprints.golden holds for the label, so each config
// here is the experiment's own.
func TestRegistrySchedulesNoEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five quick points twice")
	}
	golden := map[string]string{}
	data, err := os.ReadFile(filepath.Join("testdata", "fingerprints.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if label, fp, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			golden[label] = fp
		}
	}

	micro := func(cfg MicroConfig, seed int64) func(*telemetry.Registry) (any, uint64) {
		return func(reg *telemetry.Registry) (any, uint64) {
			cfg.Opts.Telemetry = reg
			return cfg.run(seed, true)
		}
	}
	throttled := core.Baseline(core.PerThreadDoorbell)
	throttled.WorkReqThrottle = true
	throttled.UpdateDelta = 400 * sim.Microsecond
	plan := fault.Default()
	_, wEnd := plan.Envelope()
	topos, fracs := servingGrid(true)
	serving := servingConfig(topos[0], servingTemplate(Env{}), fracs[len(fracs)-1])
	for _, c := range []struct {
		label string
		run   func(*telemetry.Registry) (any, uint64)
		bare  string // the registry-free fingerprint where a sampler moves it; "" = the golden's
	}{
		{"fig3-read/per-thread-qp/thr=96",
			micro(MicroConfig{Opts: core.Baseline(core.PerThreadQP), Threads: 96, Batch: 8, Op: rnic.OpRead}, 11), ""},
		{"fig13a/+WorkReqThrot/thr=96",
			micro(MicroConfig{Opts: throttled, Threads: 96, Batch: 16, Op: rnic.OpRead}, 13), ""},
		{"fig14/+CoroThrot/thr=96", func(reg *telemetry.Registry) (any, uint64) {
			cfg := HTConfig{Opts: core.Smart(), ThreadsPerBlade: 96, Theta: 0.99, Mix: workload.UpdateOnly, Keys: htKeys}
			cfg.Opts.Telemetry = reg
			return cfg.run(25, true)
		}, ""},
		{"chaos/faulted+storm", func(reg *telemetry.Registry) (any, uint64) {
			return chaosPoint{warmup: sim.Millisecond, horizon: wEnd + 3*sim.Millisecond, plan: plan, reg: reg}.run(chaosSeed, true)
		}, ""},
		{"serving/1x8/load=2.50", func(reg *telemetry.Registry) (any, uint64) {
			cfg := serving
			cfg.Opts.Telemetry = reg
			r, fp := cfg.run(servingSeed, true)
			r.Fingerprint = 0 // compared through fp
			return r, fp
		}, "57759475f177d892"},
	} {
		t.Run(c.label, func(t *testing.T) {
			with, withFP := c.run(telemetry.New())
			if got := fmt.Sprintf("%016x", withFP); got != golden[c.label] {
				t.Fatalf("with a registry the point reads %s, fingerprints.golden %q: not the experiment's config", got, golden[c.label])
			}
			without, withoutFP := c.run(nil)
			if !reflect.DeepEqual(with, without) {
				t.Errorf("a registry moved the result:\n with    %+v\n without %+v", with, without)
			}
			want := golden[c.label]
			if c.bare != "" {
				want = c.bare
			}
			if got := fmt.Sprintf("%016x", withoutFP); got != want {
				t.Errorf("without a registry the point reads %s, want %s", got, want)
			}
		})
	}
}
