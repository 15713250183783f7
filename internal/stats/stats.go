// Package stats provides the small statistics toolkit the benchmark
// harness uses: logarithmic latency histograms with percentile
// extraction, and integer count distributions (for the retry-count
// breakdown of Fig. 14c).
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/sim"
)

// Hist is a logarithmic-bucket histogram of durations. Buckets grow by
// ~7% per step, giving better-than-7% relative error on percentiles
// over the ns..minutes range with a few hundred buckets.
type Hist struct {
	counts []uint64
	total  uint64
	sum    float64
	min    sim.Time
	max    sim.Time
}

const (
	histBase   = 1.07
	histBucket = 512
)

var histLogBase = math.Log(histBase)

// NewHist returns an empty histogram.
func NewHist() *Hist {
	return &Hist{counts: make([]uint64, histBucket), min: math.MaxInt64}
}

// histLo[b] is the smallest sample bucketFormula puts in bucket b or
// above, and histFirst[k] the bucket of 1<<k. Both are computed once
// from the formula, so bucketOf is a table walk with no math.Log on
// the Add path, and exact (TestBucketOfMatchesFormula).
var histLo, histFirst = histTables()

func histTables() (lo [histBucket]sim.Time, first [63]int) {
	for b := 1; b < histBucket; b++ {
		v := sim.Time(math.Exp(float64(b) * histLogBase))
		for v > 1 && bucketFormula(v-1) >= b {
			v--
		}
		for bucketFormula(v) < b {
			v++
		}
		lo[b] = v
	}
	for k := range first {
		first[k] = bucketFormula(sim.Time(1) << k)
	}
	return lo, first
}

// bucketFormula is the histogram's definition of a sample's bucket.
func bucketFormula(v sim.Time) int {
	if v < 1 {
		return 0
	}
	b := int(math.Log(float64(v)) / histLogBase)
	if b >= histBucket {
		b = histBucket - 1
	}
	return b
}

// bucketOf is bucketFormula by table: start at the bucket of v's top
// bit and step up while v reaches the next bucket's lowest sample (at
// most the ~10 buckets a doubling spans).
func bucketOf(v sim.Time) int {
	if v < 1 {
		return 0
	}
	b := histFirst[bits.Len64(uint64(v))-1]
	for b+1 < histBucket && histLo[b+1] <= v {
		b++
	}
	return b
}

// Add records one sample.
func (h *Hist) Add(v sim.Time) {
	h.counts[bucketOf(v)]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Hist) Count() uint64 { return h.total }

// Mean returns the arithmetic mean, or 0 without samples.
func (h *Hist) Mean() sim.Time {
	if h.total == 0 {
		return 0
	}
	return sim.Time(h.sum / float64(h.total))
}

// Min and Max return the extreme samples (0 when empty).
func (h *Hist) Min() sim.Time {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample.
func (h *Hist) Max() sim.Time {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the approximate q-quantile (0 <= q <= 1). The
// answer is the upper edge of the bucket containing the q-th sample,
// clamped to the observed min/max.
func (h *Hist) Quantile(q float64) sim.Time {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.total))
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen > rank {
			v := sim.Time(math.Pow(histBase, float64(b+1)))
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Median is Quantile(0.5).
func (h *Hist) Median() sim.Time { return h.Quantile(0.5) }

// P99 is Quantile(0.99).
func (h *Hist) P99() sim.Time { return h.Quantile(0.99) }

// P999 is Quantile(0.999) — the SLO tail the serving experiments
// report alongside p50/p99.
func (h *Hist) P999() sim.Time { return h.Quantile(0.999) }

// Summary is the exported percentile digest of a histogram, in the
// shape the result tables consume.
type Summary struct {
	Count uint64
	Mean  sim.Time
	Min   sim.Time
	P50   sim.Time
	P99   sim.Time
	P999  sim.Time
	Max   sim.Time
}

// Summary extracts every headline statistic in one pass-friendly
// bundle (all zeros when the histogram is empty).
func (h *Hist) Summary() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		P50:   h.Median(),
		P99:   h.P99(),
		P999:  h.P999(),
		Max:   h.Max(),
	}
}

// CountDist is a distribution over small non-negative integers, used
// for per-operation retry counts.
type CountDist struct {
	counts map[int]uint64
	total  uint64
	sum    uint64
}

// NewCountDist returns an empty distribution.
func NewCountDist() *CountDist {
	return &CountDist{counts: make(map[int]uint64)}
}

// Add records one observation of value v (clamped at 0).
func (d *CountDist) Add(v int) {
	if v < 0 {
		v = 0
	}
	d.counts[v]++
	d.total++
	d.sum += uint64(v)
}

// Total returns the number of observations.
func (d *CountDist) Total() uint64 { return d.total }

// Mean returns the average value.
func (d *CountDist) Mean() float64 {
	if d.total == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.total)
}

// Frac returns the fraction of observations equal to v.
func (d *CountDist) Frac(v int) float64 {
	if d.total == 0 {
		return 0
	}
	return float64(d.counts[v]) / float64(d.total)
}

// FracAtLeast returns the fraction of observations >= v.
func (d *CountDist) FracAtLeast(v int) float64 {
	if d.total == 0 {
		return 0
	}
	var n uint64
	for k, c := range d.counts {
		if k >= v {
			n += c
		}
	}
	return float64(n) / float64(d.total)
}

// String renders the distribution in ascending value order.
func (d *CountDist) String() string {
	keys := make([]int, 0, len(d.counts))
	//smartlint:ignore maporder — keys are sorted on the next line
	for k := range d.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%d:%.1f%% ", k, 100*d.Frac(k))
	}
	return s
}
