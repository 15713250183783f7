package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/result"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// quickEnv is the tests' standard environment: quick density, seed 0,
// no telemetry, default templates.
func quickEnv(sw *sweep.Sweeper) Env {
	return Env{Sweeper: sw, Quick: true}
}

// runInstrumented runs experiment id's instrumented variant at quick
// density into a fresh registry with a trace ring of the given
// capacity, the way smartbench does.
func runInstrumented(sw *sweep.Sweeper, id string, trace int) (*telemetry.Registry, []result.Table) {
	env := quickEnv(sw)
	env.Telemetry = telemetry.New()
	if trace > 0 {
		env.Telemetry.EnableTrace(trace)
	}
	return env.Telemetry, ByID(id).Run(env)
}

// instrumentedIDs returns the experiments with an instrumented
// variant, in ID order.
func instrumentedIDs() []string {
	var ids []string
	for _, e := range All() {
		if e.Instrumented {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// telemetryDoc wraps an instrumented run's tables the way smartbench
// does, so byte comparisons cover the full rendered document.
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
// experiments with a software Neo-Host variant are marked, unknown IDs
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
	if tables := reg.Tables(""); len(tables) != 0 {
		t.Errorf("fig4 recorded %d telemetry tables into a registry it should ignore", len(tables))
	}
}

// TestTelemetryDeterminism is the same-seed contract on the telemetry
// layer: the instrumented fig13 run, executed sequentially and then on
// a 4-worker pool with the same seed and a trace ring attached, must
// render to byte-identical JSON and emit the same number of trace
// events.
func TestTelemetryDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an instrumented 96-thread run twice")
	}
	reg1, tables1 := runInstrumented(sweep.Sequential(), "fig13", 32)
	reg2, tables2 := runInstrumented(sweep.New(4), "fig13", 32)

	var j1, j2 bytes.Buffer
	if err := result.JSON(&j1, telemetryDoc("fig13", tables1)); err != nil {
		t.Fatal(err)
	}
	if err := result.JSON(&j2, telemetryDoc("fig13", tables2)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatalf("sequential and 4-worker runs rendered different telemetry:\n--- sequential\n%s\n--- parallel\n%s", j1.String(), j2.String())
	}
	if a, b := reg1.Trace().Total(), reg2.Trace().Total(); a != b {
		t.Errorf("trace event totals differ: %d vs %d", a, b)
	}
	if reg1.Trace().Total() == 0 {
		t.Error("instrumented fig13 run emitted no trace events")
	}
}

// TestTelemetryGolden freezes the fig13 instrumented run's rendered
// text against a checked-in golden, and checks the telemetry document
// JSON round-trips. Regenerate with
// `go test ./internal/bench -run TelemetryGolden -update-golden`.
func TestTelemetryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an instrumented 96-thread run")
	}
	_, tables := runInstrumented(sweep.Sequential(), "fig13", 0)

	var text bytes.Buffer
	result.Text(&text, tables)
	golden := filepath.Join("testdata", "fig13_telemetry_quick.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, text.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(text.Bytes(), want) {
		t.Errorf("telemetry text drifted from golden:\n--- got\n%s\n--- want\n%s", text.String(), want)
	}

	var j1 bytes.Buffer
	if err := result.JSON(&j1, telemetryDoc("fig13", tables)); err != nil {
		t.Fatal(err)
	}
	parsed, err := result.ParseJSON(bytes.NewReader(j1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var j2 bytes.Buffer
	if err := result.JSON(&j2, parsed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Error("telemetry JSON does not round-trip to identical bytes")
	}
}

// TestTelemetryShapes runs every instrumented variant in quick mode —
// on a parallel sweeper, so the probe-registry isolation is exercised
// under -race — and asserts its telemetry shape predicates, the CI
// gate's in-repo equivalent.
func TestTelemetryShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full instrumented sweeps")
	}
	for _, id := range instrumentedIDs() {
		t.Run(id, func(t *testing.T) {
			_, tables := runInstrumented(sweep.New(0), id, 0)
			for _, v := range CheckTelemetry(id, tables) {
				t.Errorf("%s: %s", v.Check, v.Detail)
			}
		})
	}
}
