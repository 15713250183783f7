package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestZipfHoistedBoundIsBitIdentical pins NewZipf's precomputed
// 1+0.5^θ: the stream equals Next with the bound computed per draw.
func TestZipfHoistedBoundIsBitIdentical(t *testing.T) {
	unhoisted := func(z *Zipf, rng *rand.Rand) uint64 {
		u := rng.Float64()
		uz := u * z.zetan
		if uz < 1.0 {
			return 0
		}
		if uz < 1.0+math.Pow(0.5, z.theta) {
			return 1
		}
		return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	for _, theta := range []float64{0.01, 0.5, 0.9, 0.99} {
		for seed := int64(1); seed <= 4; seed++ {
			z := NewZipf(rand.New(rand.NewSource(seed)), 1000, theta)
			ref := rand.New(rand.NewSource(seed))
			for i := 0; i < 20000; i++ {
				if got, want := z.Next(), unhoisted(z, ref); got != want {
					t.Fatalf("θ=%v seed %d draw %d: %d, unhoisted %d", theta, seed, i, got, want)
				}
			}
		}
	}
}
