package main

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/sim"
)

// TestExampleDeterminism: because every RNG in the example is an
// explicit seeded *rand.Rand (the seededrand analyzer enforces this),
// the demo's output is a pure function of its parameters.
func TestExampleDeterminism(t *testing.T) {
	cfg := defaults
	cfg.Keys, cfg.ThreadsPerBlade = 2_000, 2
	cfg.Warmup, cfg.Measure = sim.Millisecond/2, sim.Millisecond/2
	for _, v := range []bench.BTVariant{bench.ShermanPlus, bench.SmartBT} {
		a := run(v, cfg)
		b := run(v, cfg)
		if a != b {
			t.Errorf("%v: same seed, different results:\n  %+v\n  %+v", v, a, b)
		}
		if a.Ops == 0 {
			t.Errorf("%v: no lookups completed", v)
		}
	}
}
