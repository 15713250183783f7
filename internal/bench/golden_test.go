package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/result"
	"repro/internal/sweep"
)

//smartlint:ignore sharedstate — test flag, written only by the flag package before tests run
var updateGolden = flag.Bool("update-golden", false, "rewrite the checked-in golden files")

// TestFig3QuickGolden extends the same-seed determinism contract to
// the output layer: the fig3 quick sweep, run sequentially without a
// registry and as quickRun's shared GOMAXPROCS-wide run with one (which
// must change no table), must render to identical text — the sweep
// scheduler's merge-order guarantee and telemetry neutrality made
// concrete in one executed pair — and that text must match the
// checked-in golden byte for byte. The golden spec file
// testdata/specs/fig3_quick.json is pinned to this experiment by
// TestGoldenSpecsPinned and executed against the same golden by
// smartbench's TestSpecRunEndToEnd. Regenerate with
// `go test ./internal/bench -run Fig3QuickGolden -update-golden`.
func TestFig3QuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep twice")
	}
	first := ByID("fig3").Run(quickEnv(sweep.Sequential()))
	second := quickRun(t, "fig3").tables

	var a, b bytes.Buffer
	result.Text(&a, first)
	result.Text(&b, second)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("the sequential sweep and the shared parallel instrumented sweep rendered differently:\n--- sequential\n%s\n--- parallel, instrumented\n%s", a.String(), b.String())
	}

	golden := filepath.Join("testdata", "fig3_quick.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, a.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(a.Bytes(), want) {
		t.Errorf("text output drifted from golden:\n--- got\n%s\n--- want\n%s", a.String(), want)
	}

	// JSON round-trip: rendered bytes, parsed and re-rendered, must
	// reproduce themselves exactly.
	doc := &result.Document{
		Generator: "smartbench",
		Paper:     "SMART (ASPLOS 2024)",
		Quick:     true,
		Experiments: []result.Experiment{
			{ID: "fig3", Title: ByID("fig3").Title, Tables: first},
		},
	}
	var j1 bytes.Buffer
	if err := result.JSON(&j1, doc); err != nil {
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
		t.Error("JSON output does not round-trip to identical bytes")
	}
}
