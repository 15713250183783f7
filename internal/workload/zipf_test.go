package workload

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZipfBoundsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16, thetaRaw uint8) bool {
		n := uint64(nRaw%1000) + 1
		theta := float64(thetaRaw%100) / 101.0 // in [0, 0.99)
		z := NewZipf(rand.New(rand.NewSource(seed)), n, theta)
		for i := 0; i < 200; i++ {
			if v := z.Next(); v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkewConcentratesMass(t *testing.T) {
	const n = 10000
	const draws = 200000
	frac := func(theta float64) float64 {
		z := NewZipf(rand.New(rand.NewSource(7)), n, theta)
		hot := 0
		for i := 0; i < draws; i++ {
			if z.Next() < n/100 { // hottest 1%
				hot++
			}
		}
		return float64(hot) / draws
	}
	uniform, skewed := frac(0), frac(0.99)
	if uniform > 0.03 {
		t.Fatalf("uniform hot fraction = %.3f, want ~0.01", uniform)
	}
	if skewed < 0.4 {
		t.Fatalf("theta=0.99 hot-1%% fraction = %.3f, want >0.4 (YCSB-like skew)", skewed)
	}
}

func TestZipfHottestIsZero(t *testing.T) {
	z := NewZipf(rand.New(rand.NewSource(1)), 1000, 0.99)
	counts := make(map[uint64]int)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	best, bestKey := 0, uint64(0)
	for k, c := range counts {
		if c > best {
			best, bestKey = c, k
		}
	}
	if bestKey != 0 {
		t.Fatalf("hottest key = %d, want 0", bestKey)
	}
	// The single hottest key of a Zipf(0.99) over 1000 items draws
	// roughly 1/zeta share; sanity check it is far above uniform.
	if float64(best)/100000 < 0.05 {
		t.Fatalf("hottest key frequency %.3f too low for theta=0.99", float64(best)/100000)
	}
}

func TestZipfDeterministicPerSeed(t *testing.T) {
	a := NewZipf(rand.New(rand.NewSource(5)), 500, 0.9)
	b := NewZipf(rand.New(rand.NewSource(5)), 500, 0.9)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestZipfRejectsBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipf(rand.New(rand.NewSource(1)), 0, 0.5) },
		func() { NewZipf(rand.New(rand.NewSource(1)), 10, 1.0) },
		func() { NewZipf(rand.New(rand.NewSource(1)), 10, -0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestYCSBMixRatios(t *testing.T) {
	for _, mix := range []Mix{WriteHeavy, ReadHeavy, ReadOnly, UpdateOnly} {
		y := NewYCSB(rand.New(rand.NewSource(3)), 1000, 0.99, mix)
		updates := 0
		const draws = 50000
		for i := 0; i < draws; i++ {
			op, key := y.Next()
			if key >= 1000 {
				t.Fatalf("key %d out of range", key)
			}
			if op == Update {
				updates++
			}
		}
		got := float64(updates) / draws
		if got < mix.UpdateFrac-0.02 || got > mix.UpdateFrac+0.02 {
			t.Fatalf("%s: update fraction = %.3f, want ≈%.2f", mix.Name, got, mix.UpdateFrac)
		}
	}
}

// TestWithRandMatchesNewYCSB is the differential check behind building
// ζ(n, θ) once per point: a generator derived from a shared template
// draws exactly what a fresh NewYCSB on an equally seeded rng draws,
// and derived generators share no RNG state — each stream is unmoved
// by draws on its sibling or by a later derivation from the template.
func TestWithRandMatchesNewYCSB(t *testing.T) {
	const n, draws = 5000, 10000
	for _, theta := range []float64{0, 0.5, 0.99} {
		for _, mix := range []Mix{WriteHeavy, ReadHeavy} {
			tmpl := NewYCSB(nil, n, theta, mix)
			a := tmpl.WithRand(rand.New(rand.NewSource(41)))
			b := tmpl.WithRand(rand.New(rand.NewSource(42)))
			freshA := NewYCSB(rand.New(rand.NewSource(41)), n, theta, mix)
			freshB := NewYCSB(rand.New(rand.NewSource(42)), n, theta, mix)
			for i := 0; i < draws; i++ {
				// Interleaved, and b drawn twice per round: any state a and
				// b shared would pull one of them off its reference.
				opA, keyA := a.Next()
				wantOpA, wantKeyA := freshA.Next()
				if opA != wantOpA || keyA != wantKeyA {
					t.Fatalf("θ=%v %s draw %d: derived (%v, %d), fresh (%v, %d)", theta, mix.Name, i, opA, keyA, wantOpA, wantKeyA)
				}
				for j := 0; j < 2; j++ {
					opB, keyB := b.Next()
					wantOpB, wantKeyB := freshB.Next()
					if opB != wantOpB || keyB != wantKeyB {
						t.Fatalf("θ=%v %s draw %d: sibling (%v, %d), fresh (%v, %d)", theta, mix.Name, 2*i+j, opB, keyB, wantOpB, wantKeyB)
					}
				}
				if i == draws/2 {
					tmpl.WithRand(rand.New(rand.NewSource(43))).Next()
				}
			}
		}
	}
}
