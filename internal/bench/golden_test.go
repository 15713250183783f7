package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/result"
	"repro/internal/sweep"
)

//smartlint:ignore sharedstate — test flag, written only by the flag package before tests run
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/enumeration.golden and the golden spec files")

// checkGolden holds got to the checked-in file at path, rewriting the
// file first under -update-golden.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted; a deliberate change regenerates it with -update-golden. %s", path, firstDiff(got, want))
	}
}

// firstDiff describes the first line at which got and want differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	at := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of input>"
	}
	for i := 0; i < max(len(g), len(w)); i++ {
		if at(g, i) != at(w, i) {
			return fmt.Sprintf("First difference at line %d:\n--- got\n%s\n--- want\n%s", i+1, at(g, i), at(w, i))
		}
	}
	return "No line differs."
}

// quickRegen writes the quick goldens: they are the CLI's own documents.
const quickRegen = "go run ./cmd/smartbench -exp all -quick -format json " +
	"-out internal/bench/testdata/quick.json -telemetry internal/bench/testdata/quick_telemetry.json"

// TestQuickGolden holds the quick tables to testdata/quick.json and
// quick_telemetry.json, the results and telemetry documents quickRegen
// writes; a deliberate change to a simulated number regenerates them,
// and their diff is the review. Each golden must re-render to itself
// through ParseJSON and JSON and list exactly the registered
// experiments (results) or the instrumented ones (telemetry), in ID
// order. Every table set quickRun holds, substituted into its entry,
// must render the golden's bytes, so the test adds no run; CI's quick
// sweep cmps both whole documents, which covers the experiments this
// binary does not run. The goldens are amd64 bytes, the architecture CI
// runs on. CI holds arm64 builds of the module's code free of fused
// multiply-adds (DESIGN.md §8), but whether math.Pow and math.Log give
// the same last bit there has not been measured.
func TestQuickGolden(t *testing.T) {
	var registered []string
	for _, e := range All() {
		registered = append(registered, e.ID)
	}
	for _, g := range []struct {
		file   string
		kind   string   // which experiments it lists
		ids    []string // the IDs of those, in order
		tables func(*quickOutcome) []result.Table
	}{
		{"quick.json", "registered", registered, func(o *quickOutcome) []result.Table { return o.tables }},
		{"quick_telemetry.json", "instrumented", instrumentedIDs(), func(o *quickOutcome) []result.Table { return o.telem }},
	} {
		t.Run(g.file, func(t *testing.T) {
			path := filepath.Join("testdata", g.file)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with %s): %v", quickRegen, err)
			}
			doc, err := result.ParseJSON(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			if got := renderJSON(t, doc); !bytes.Equal(got, want) {
				t.Fatalf("%s does not re-render to itself. %s", path, firstDiff(got, want))
			}

			var listed []string
			for _, e := range doc.Experiments {
				listed = append(listed, e.ID)
			}
			if !slices.Equal(listed, g.ids) {
				for _, id := range g.ids {
					if !slices.Contains(listed, id) {
						t.Errorf("%s lacks %s experiment %s", path, g.kind, id)
					}
				}
				for _, id := range listed {
					if !slices.Contains(g.ids, id) {
						t.Errorf("%s lists %s, which is not a %s experiment", path, id, g.kind)
					}
				}
				t.Fatalf("%s lists %v, want %v; regenerate with %s", path, listed, g.ids, quickRegen)
			}
			if testing.Short() {
				return
			}

			for i, e := range doc.Experiments {
				if !slices.Contains(quickIDs(), e.ID) {
					continue
				}
				t.Run(e.ID, func(t *testing.T) {
					golden := e.Tables
					doc.Experiments[i].Tables = g.tables(quickRun(t, e.ID))
					got := renderJSON(t, doc)
					doc.Experiments[i].Tables = golden
					if !bytes.Equal(got, want) {
						t.Errorf("%s's tables drifted from %s; a deliberate change regenerates it with %s. %s", e.ID, path, quickRegen, firstDiff(got, want))
					}
				})
			}
		})
	}
}

// renderJSON renders doc the way smartbench writes it.
func renderJSON(t *testing.T, doc *result.Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := result.JSON(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFingerprintGolden holds every point that quickRun executes to
// its event fingerprint in testdata/fingerprints.golden: one
// "label fingerprint" line per point, each experiment under a "# id"
// header. The fingerprint hashes the (timestamp, sequence number) of
// every event the point's engines executed, so a change that claims
// to move no simulated event — a refactor, a host-side optimisation —
// shows it here in the seconds go test already spends, without a
// full quick sweep; one that moves events names the points it moved.
// The fingerprints are independent of the worker count: quickRun uses
// GOMAXPROCS workers, and fig14, the RACE points, is run again here on
// one worker and must read the same. Regenerate with
// `go test ./internal/bench -run FingerprintGolden -update-golden`.
func TestFingerprintGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real quick sweeps")
	}
	var got bytes.Buffer
	for _, id := range quickIDs() {
		fmt.Fprintf(&got, "# %s\n", id)
		for _, line := range quickRun(t, id).fps {
			fmt.Fprintln(&got, line)
		}
	}
	checkGolden(t, filepath.Join("testdata", "fingerprints.golden"), got.Bytes())

	var seq []string
	env := quickEnv(sweep.Sequential())
	env.Fingerprints = func(label string, fp uint64) { seq = append(seq, fmt.Sprintf("%s %016x", label, fp)) }
	ByID("fig14").Run(env)
	if par := quickRun(t, "fig14").fps; !slices.Equal(seq, par) {
		t.Errorf("fig14's fingerprints differ between one worker and GOMAXPROCS workers:\n%s\nvs\n%s",
			strings.Join(seq, "\n"), strings.Join(par, "\n"))
	}
}
