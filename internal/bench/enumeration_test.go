package bench

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// TestEnumerationPinned pins every experiment's points — label and
// seed, in enumeration order — at both densities with a non-zero
// Env.Seed. A registry adds no point: an instrumented experiment must
// enumerate the same points with one, so the golden lists each
// experiment once, without. The sweeps run on a probe, so nothing
// executes and the whole registry enumerates in milliseconds.
// Regenerate with `go test ./internal/bench -run EnumerationPinned
// -update-golden`.
func TestEnumerationPinned(t *testing.T) {
	enumerate := func(e *Experiment, quick bool, reg *telemetry.Registry) []string {
		var points []string
		probe := sweep.Probe(func(s *sweep.Set) {
			for _, p := range s.Points() {
				points = append(points, fmt.Sprintf("%s %d", p.Label, p.Seed))
			}
		})
		e.Run(Env{Sweeper: probe, Seed: 3, Quick: quick, Telemetry: reg})
		return points
	}
	var got bytes.Buffer
	for _, e := range All() {
		for _, quick := range []bool{true, false} {
			plain := enumerate(e, quick, nil)
			fmt.Fprintf(&got, "# %s quick=%v telemetry=false\n", e.ID, quick)
			for _, p := range plain {
				fmt.Fprintln(&got, p)
			}
			if !e.Instrumented {
				continue
			}
			if with := enumerate(e, quick, telemetry.New()); !slices.Equal(with, plain) {
				t.Errorf("%s quick=%v enumerates other points with a registry:\n%v\nwithout one:\n%v", e.ID, quick, with, plain)
			}
		}
	}

	checkGolden(t, filepath.Join("testdata", "enumeration.golden"), got.Bytes())
}
