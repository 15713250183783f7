package stats

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestBucketOfMatchesFormula proves the table lookup exact: every
// sample up to 2^22, then ±1024 around each bucket's lowest sample up
// to the cap, and the extremes of sim.Time.
func TestBucketOfMatchesFormula(t *testing.T) {
	check := func(v sim.Time) {
		if got, want := bucketOf(v), bucketFormula(v); got != want {
			t.Fatalf("bucketOf(%d) = %d, formula says %d", v, got, want)
		}
	}
	for v := sim.Time(-16); v <= 1<<22; v++ {
		check(v)
	}
	for b := 1; b < histBucket; b++ {
		lo := histLo[b]
		for d := sim.Time(-1024); d <= 1024; d++ {
			check(lo + d)
		}
	}
	for _, v := range []sim.Time{math.MaxInt64, math.MaxInt64 - 1, 1 << 62, 1<<62 - 1, math.MinInt64} {
		check(v)
	}
}

func FuzzBucketOf(f *testing.F) {
	for _, v := range []int64{0, 1, 2, 3, 1000, 1 << 30, 1 << 50, math.MaxInt64} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v int64) {
		if got, want := bucketOf(sim.Time(v)), bucketFormula(sim.Time(v)); got != want {
			t.Fatalf("bucketOf(%d) = %d, formula says %d", v, got, want)
		}
	})
}
