package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/spec"
	"repro/internal/sweep"
)

// goldenSpecs pairs each golden spec file with the in-code builder it
// pins and the registered experiment it describes.
func goldenSpecs() []struct {
	file  string // under testdata/specs
	expID string
	build func(quick bool) *spec.Spec
} {
	return []struct {
		file  string
		expID string
		build func(quick bool) *spec.Spec
	}{
		{"fig3_quick.json", "fig3", fig3Spec},
		{"fig13_quick.json", "fig13", fig13Spec},
		{"serving_quick.json", "serving", servingSpec},
		{"batching_quick.json", "batching", batchingSpec},
	}
}

// TestGoldenSpecsPinned pins the checked-in golden spec files to the
// canonical encoding of the in-code quick sections the registered
// experiments run — so the JSON on disk provably describes the same
// sweep as the figure. Regenerate with
// `go test ./internal/bench -run GoldenSpecsPinned -update-golden`.
func TestGoldenSpecsPinned(t *testing.T) {
	for _, g := range goldenSpecs() {
		t.Run(g.expID, func(t *testing.T) {
			s := g.build(true)
			want, err := s.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "specs", g.file)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, want, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden spec (run with -update-golden to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("golden spec drifted from the in-code section:\n--- file\n%s\n--- in-code\n%s", got, want)
			}

			// The file must parse back to the exact in-code value — the
			// round-trip that makes "spec file == experiment" a theorem
			// rather than a convention.
			parsed, err := spec.Parse(got)
			if err != nil {
				t.Fatalf("golden spec does not parse: %v", err)
			}
			if !reflect.DeepEqual(parsed, s) {
				t.Errorf("parsed golden spec differs from the in-code section:\n%+v\nvs\n%+v", parsed, s)
			}
		})
	}
}

// TestSpecProbeEnumeration compares enumerations without executing a
// single point: each golden spec, lowered through a probing sweeper,
// must enumerate exactly the labels and seeds of the registered
// experiment it mirrors. With TestGoldenSpecsPinned (file = in-code
// spec, which is what the registered experiment lowers) this makes
// equal output a matter of construction; TestFig3QuickGolden executes
// one golden file against checked-in bytes as the witness.
func TestSpecProbeEnumeration(t *testing.T) {
	type point struct {
		label string
		seed  int64
	}
	enumerate := func(run func(sw *sweep.Sweeper)) []point {
		var pts []point
		probe := sweep.Probe(func(s *sweep.Set) {
			for _, p := range s.Points() {
				pts = append(pts, point{label: p.Label, seed: p.Seed})
			}
		})
		run(probe)
		return pts
	}
	for _, g := range goldenSpecs() {
		t.Run(g.expID, func(t *testing.T) {
			s, err := spec.Load(filepath.Join("testdata", "specs", g.file))
			if err != nil {
				t.Fatal(err)
			}
			e, err := FromSpec(s)
			if err != nil {
				t.Fatal(err)
			}
			fromSpec := enumerate(func(sw *sweep.Sweeper) { e.Run(Env{Sweeper: sw}) })
			fromExp := enumerate(func(sw *sweep.Sweeper) {
				ByID(g.expID).Run(quickEnv(sw))
			})
			if len(fromSpec) == 0 {
				t.Fatal("spec enumerated no points")
			}
			if !reflect.DeepEqual(fromSpec, fromExp) {
				t.Errorf("spec and experiment enumerate different points:\n--- spec\n%v\n--- experiment\n%v", fromSpec, fromExp)
			}
		})
	}
}

// TestFromSpecRunCannotFail pins FromSpec's contract: whatever Parse
// accepts either fails to lower — with an error, up front — or
// returns a Run that cannot fail. Every golden spec must enumerate
// through a probe (the registered experiments execute the same
// lowerings in TestShapesQuick and TestFig3QuickGolden), and
// FuzzScenarioSpecParse's seed documents, which are a few points each,
// are executed for real: they include the specs only lowering can
// reject — shared-CQ polling on a policy whose threads share one CQ
// validates as a document and used to panic a sweep worker in
// core.MustNew.
func TestFromSpecRunCannotFail(t *testing.T) {
	run := func(pattern string, sw func(points *int) *sweep.Sweeper) {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Fatalf("no specs match %s (err %v)", pattern, err)
		}
		for _, file := range files {
			t.Run(filepath.Base(file), func(t *testing.T) {
				s, err := spec.Load(file)
				if err != nil {
					t.Skipf("rejected by the schema: %v", err)
				}
				e, err := FromSpec(s)
				if err != nil {
					t.Logf("rejected by lowering: %v", err)
					return
				}
				points := 0
				e.Run(Env{Sweeper: sw(&points)})
				if points == 0 {
					t.Error("lowered spec enumerated no points")
				}
			})
		}
	}
	run(filepath.Join("testdata", "specs", "*.json"), func(points *int) *sweep.Sweeper {
		return sweep.Probe(func(set *sweep.Set) { *points += set.Len() })
	})
	if testing.Short() {
		return
	}
	run(filepath.Join("..", "spec", "testdata", "seeds", "*.json"), func(points *int) *sweep.Sweeper {
		sw := sweep.New(0)
		sw.OnPoint(func(int, int, *sweep.Point) { *points++ })
		return sw
	})
}
