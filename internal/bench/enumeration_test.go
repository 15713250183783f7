package bench

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// TestEnumerationPinned pins every experiment's points — label and
// seed, in enumeration order — at both densities with a non-zero
// Env.Seed; an instrumented experiment's both without and with a
// registry. The sweeps run on a probe, so nothing executes and the
// whole registry enumerates in milliseconds. Regenerate with
// `go test ./internal/bench -run EnumerationPinned -update-golden`.
func TestEnumerationPinned(t *testing.T) {
	var got bytes.Buffer
	probe := sweep.Probe(func(s *sweep.Set) {
		for _, p := range s.Points() {
			fmt.Fprintf(&got, "%s %d\n", p.Label, p.Seed)
		}
	})
	for _, e := range All() {
		for _, quick := range []bool{true, false} {
			variants := []*telemetry.Registry{nil}
			if e.Instrumented {
				variants = append(variants, telemetry.New())
			}
			for _, reg := range variants {
				fmt.Fprintf(&got, "# %s quick=%v telemetry=%v\n", e.ID, quick, reg != nil)
				e.Run(Env{Sweeper: probe, Seed: 3, Quick: quick, Telemetry: reg})
			}
		}
	}

	checkGolden(t, filepath.Join("testdata", "enumeration.golden"), got.Bytes())
}
