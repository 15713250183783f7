package bench

import (
	"bytes"
	"testing"

	"repro/internal/result"
	"repro/internal/sweep"
)

// TestParallelSweepUnderRace is the cheap end-to-end audit of the
// point-isolation invariant: the fastest registered experiment (fig4
// quick, six micro points), run sequentially and then on a 4-worker
// pool, must render byte-identical text. Its real job is in CI's race
// job — with the detector attached, any package-level state a point
// touches (engine, cluster, params, telemetry) surfaces as a report
// here rather than as a heisen-diff in a full sweep.
func TestParallelSweepUnderRace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep twice")
	}
	seq := ByID("fig4").Run(quickEnv(sweep.Sequential()))
	par := ByID("fig4").Run(quickEnv(sweep.New(4)))

	var a, b bytes.Buffer
	result.Text(&a, seq)
	result.Text(&b, par)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("sequential and 4-worker fig4 sweeps rendered differently:\n--- sequential\n%s\n--- parallel\n%s", a.String(), b.String())
	}
}

// TestSweepLabelsAreUnique guards the progress stream and future
// point-addressed tooling: within one experiment's enumeration, point
// labels must be distinct, and every experiment must actually
// enumerate points (an inline loop that bypasses the scheduler would
// show up here as zero points). sweep.Probe makes this free — the
// enumeration is recorded without executing a single run.
func TestSweepLabelsAreUnique(t *testing.T) {
	for _, quick := range []bool{true, false} {
		for _, e := range All() {
			var labels []string
			probe := sweep.Probe(func(s *sweep.Set) { labels = append(labels, s.Labels()...) })
			env := quickEnv(probe)
			env.Quick = quick
			e.Run(env)
			seen := make(map[string]bool, len(labels))
			for _, l := range labels {
				if seen[l] {
					t.Errorf("%s (quick=%v): duplicate point label %q", e.ID, quick, l)
				}
				seen[l] = true
			}
			if len(labels) == 0 {
				t.Errorf("%s (quick=%v): experiment enumerated no points", e.ID, quick)
			}
		}
	}
}
