package bench

import "repro/internal/spec"

// The serving experiment is the open-loop capacity-planning study
// over internal/serve: sweep the offered arrival rate × the
// blade/thread topology and report SLO percentiles (p50/p99/p999 op
// and txn latency split into queue wait and service time), goodput,
// and shed fraction. Load is expressed as a fraction of each
// topology's nominal capacity so one x-axis compares every
// configuration, and the shape checks pin the saturation knee: p99
// flat below it, superlinear across it, goodput plateauing (and load
// shedding) past it.

// servingPerThreadCapacity is the calibrated steady-state capacity of
// one serving thread (4 worker coroutines over the ~3.8 µs sync READ
// service path), in ops/us. Measured on the PerThreadDoorbell policy:
// 1 runtime × 8 threads saturates at ≈ 9.17 ops/us, 2×16 at ≈ 36.7 —
// both ≈ 1.15 per thread. Load fraction 1.0 sits right at the knee.
const servingPerThreadCapacity = 1.15

// servingTxnFrac is the transaction mix of the serving workload: one
// in five requests is a READ+FAA transaction.
const servingTxnFrac = 0.2

// servingGrid returns the topology × load-fraction grid. The quick
// grid keeps the exact fractions and the two smaller topologies the
// shape checks reference, so -quick -check exercises every predicate.
func servingGrid(quick bool) (topos []spec.Topo, fracs []float64) {
	topos = []spec.Topo{{Runtimes: 1, Threads: 8}, {Runtimes: 2, Threads: 16}}
	fracs = []float64{0.25, 0.5, 1.5, 2.5}
	if !quick {
		topos = append(topos, spec.Topo{Runtimes: 4, Threads: 32})
		fracs = []float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5}
	}
	return topos, fracs
}

// The serving experiment is its spec (servingSpec) lowered by
// FromSpec, so the golden serving spec reproduces this output
// byte-identically. -arrival sets the spec's arrival template; the
// burst-comparison table always runs its own poisson and mmpp specs
// regardless of it. A non-nil env.Telemetry adds the instrumented
// overload point, whose registry export rides along after the result
// tables.
func init() {
	register(&Experiment{
		ID:           "serving",
		Title:        "Open-loop serving capacity: SLO percentiles and goodput vs offered load x topology",
		Category:     "serving",
		Instrumented: true,
		Spec:         servingSpec,
	})
}
