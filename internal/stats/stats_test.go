package stats

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestHistEmpty(t *testing.T) {
	h := NewHist()
	if h.Count() != 0 || h.Mean() != 0 || h.Median() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistBasicStats(t *testing.T) {
	h := NewHist()
	for _, v := range []sim.Time{100, 200, 300, 400} {
		h.Add(v)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 250 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Min() != 100 || h.Max() != 400 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistQuantileAccuracy(t *testing.T) {
	h := NewHist()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		h.Add(sim.Time(rng.Intn(100000)) + 1)
	}
	med := float64(h.Median())
	if med < 45000 || med > 56000 {
		t.Fatalf("median of U[1,100000] = %v, want ≈50000 within bucket error", med)
	}
	p99 := float64(h.P99())
	if p99 < 93000 || p99 > 107000 {
		t.Fatalf("p99 = %v, want ≈99000 within bucket error", p99)
	}
}

func TestHistQuantileEdges(t *testing.T) {
	h := NewHist()
	h.Add(500 * sim.Nanosecond)
	h.Add(1000 * sim.Nanosecond)
	if h.Quantile(0) != 500 {
		t.Fatalf("Q(0) = %v", h.Quantile(0))
	}
	if h.Quantile(1) != 1000 {
		t.Fatalf("Q(1) = %v", h.Quantile(1))
	}
}

// Property: quantiles are monotone in q and bounded by [min, max].
func TestHistQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHist()
		for _, v := range vals {
			h.Add(sim.Time(v%1000000) + 1)
		}
		last := sim.Time(0)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < last || v < h.Min() || v > h.Max() {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCountDist(t *testing.T) {
	d := NewCountDist()
	for _, v := range []int{0, 0, 0, 1, 1, 4, -3} {
		d.Add(v)
	}
	if d.Total() != 7 {
		t.Fatalf("Total = %d", d.Total())
	}
	if got := d.Frac(0); got < 0.57 || got > 0.58 { // 4/7 (the -3 clamps to 0)
		t.Fatalf("Frac(0) = %v", got)
	}
	if got := d.FracAtLeast(1); got < 0.42 || got > 0.43 {
		t.Fatalf("FracAtLeast(1) = %v", got)
	}
	if got := d.Mean(); got < 0.85 || got > 0.86 { // (1+1+4)/7
		t.Fatalf("Mean = %v", got)
	}
	if got, want := d.String(), "0:57.1% 1:28.6% 4:14.3% "; got != want {
		t.Fatalf("String = %q, want %q (ascending value order)", got, want)
	}
}

// Observations from several sources land in one shared CountDist, and
// String renders every value they contributed.
func TestCountDistMergeAndString(t *testing.T) {
	d := NewCountDist()
	for _, src := range [][]int{{0}, {2, 2}} {
		for _, v := range src {
			d.Add(v)
		}
	}
	if d.Total() != 3 || d.Frac(2) < 0.6 {
		t.Fatalf("merge wrong: total=%d frac2=%v", d.Total(), d.Frac(2))
	}
	s := d.String()
	if !strings.Contains(s, "0:") || !strings.Contains(s, "2:") {
		t.Fatalf("String = %q", s)
	}
}

func TestCountDistEmpty(t *testing.T) {
	d := NewCountDist()
	if d.Mean() != 0 || d.Frac(1) != 0 || d.FracAtLeast(0) != 0 {
		t.Fatal("empty dist must report zeros")
	}
}

func TestHistSummary(t *testing.T) {
	h := NewHist()
	if s := h.Summary(); s != (Summary{}) {
		t.Fatalf("empty Summary = %+v, want zeros", s)
	}
	for _, v := range []sim.Time{100, 200, 300, 400} {
		h.Add(v)
	}
	s := h.Summary()
	if s.Count != 4 || s.Mean != 250 || s.Min != 100 || s.Max != 400 {
		t.Fatalf("Summary = %+v", s)
	}
	if s.P50 != h.Median() || s.P99 != h.P99() || s.P999 != h.P999() {
		t.Fatalf("Summary percentiles disagree with Quantile: %+v", s)
	}
	if s.P99 < s.P50 || s.P50 < s.Min || s.Max < s.P999 || s.P999 < s.P99 {
		t.Fatalf("Summary not ordered: %+v", s)
	}
}

func TestHistP999SeparatesTail(t *testing.T) {
	// 1 in 500 samples is a 100x outlier: p99 must stay near the body
	// while p999 lands in the outlier range.
	h := NewHist()
	for i := 0; i < 100000; i++ {
		if i%500 == 0 {
			h.Add(100 * sim.Microsecond)
		} else {
			h.Add(1 * sim.Microsecond)
		}
	}
	if p99 := h.P99(); p99 > 2*sim.Microsecond {
		t.Fatalf("P99 = %v, want near the 1us body", p99)
	}
	if p999 := h.P999(); p999 < 50*sim.Microsecond {
		t.Fatalf("P999 = %v, want in the 100us outlier range", p999)
	}
}
