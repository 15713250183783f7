package main

import (
	"testing"

	"repro/internal/sim"
)

// TestExampleDeterminism: the demo's output is a pure function of its
// parameters because all randomness flows from explicit seeded
// generators (enforced by the seededrand analyzer).
func TestExampleDeterminism(t *testing.T) {
	cfg := defaults
	cfg.Records, cfg.Threads = 2_000, 4
	cfg.Warmup, cfg.Measure = sim.Millisecond/2, sim.Millisecond/2
	a := run(false, cfg)
	b := run(false, cfg)
	if a != b {
		t.Errorf("same seed, different results:\n  %+v\n  %+v", a, b)
	}
	if a.Txns == 0 {
		t.Error("no transactions completed")
	}
}
