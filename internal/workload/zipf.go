// Package workload generates the synthetic workloads of the paper's
// evaluation: Zipfian and uniform key distributions (YCSB's skewed
// access pattern with θ = 0.99), YCSB read/write mixes, and the
// transaction parameter streams for SmallBank and TATP.
package workload

import (
	"math"
	"math/rand"
)

// Zipf draws keys in [0, n) with a Zipfian distribution of skew theta,
// using the Gray et al. rejection-inversion method that YCSB also uses
// ("Quickly generating billion-record synthetic databases", SIGMOD
// 1994). theta = 0 degenerates to uniform; the paper uses theta = 0.99.
//
// Item 0 is the hottest key. Unlike math/rand's Zipf, this
// implementation supports 0 < theta < 1 exactly as YCSB defines it.
type Zipf struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	half  float64 // 1 + 0.5^theta, the bound below which Next draws key 1
	rng   *rand.Rand
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n uint64, theta float64) float64 {
	var s float64
	for i := uint64(1); i <= n; i++ {
		s += 1.0 / math.Pow(float64(i), theta)
	}
	return s
}

// NewZipf returns a generator over [0, n) with the given skew. For
// theta > 0 the constructor is O(n) (computing zeta) and nothing here
// caches it: a caller that needs many generators over one (n, theta)
// builds one YCSB and derives the rest with YCSB.WithRand.
func NewZipf(rng *rand.Rand, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("workload: Zipf over empty domain")
	}
	if theta < 0 || theta >= 1 {
		panic("workload: Zipf theta must be in [0,1)")
	}
	z := &Zipf{n: n, theta: theta, rng: rng}
	if theta == 0 {
		return z
	}
	z.zetan = zeta(n, theta)
	zeta2 := zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	z.half = 1.0 + math.Pow(0.5, theta)
	return z
}

// Next draws the next key.
func (z *Zipf) Next() uint64 {
	if z.theta == 0 {
		return uint64(z.rng.Int63n(int64(z.n)))
	}
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	// The explicit conversion rounds the product, so no architecture
	// fuses it into a multiply-add and draws another key (DESIGN.md §8).
	return uint64(float64(z.n) * math.Pow(float64(z.eta*u)-z.eta+1, z.alpha))
}
