package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestExampleDeterminism: the demo's output is a pure function of its
// parameters because all randomness flows from explicit seeded
// generators (enforced by the seededrand analyzer).
func TestExampleDeterminism(t *testing.T) {
	cfg := defaults
	cfg.Keys, cfg.ThreadsPerBlade = 2_000, 4
	cfg.Warmup, cfg.Measure = sim.Millisecond/2, sim.Millisecond/2
	a := run(core.Smart(), cfg)
	b := run(core.Smart(), cfg)
	if a.RetryDist.String() != b.RetryDist.String() {
		t.Errorf("same seed, different retry distributions:\n  %v\n  %v", a.RetryDist, b.RetryDist)
	}
	a.RetryDist, b.RetryDist = nil, nil // compared by value above; the pointers always differ
	if a != b {
		t.Errorf("same seed, different results:\n  %+v\n  %+v", a, b)
	}
	if a.Ops == 0 {
		t.Error("no operations completed")
	}
}
