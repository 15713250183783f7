package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/stats"
)

// app describes one closed-loop point to runApp: how big a cluster it
// needs, how it is configured, and how its state and coroutines are
// built. RunMicro, RunHT, RunBT, RunDTX and the chaos storm each map
// their config onto one of these; everything else about running a point
// is runApp's.
type app struct {
	name    string         // coroutine-name prefix
	cluster cluster.Config // blade counts, memory kind and size, seed
	threads int            // per compute blade; zero = 16
	coros   int            // coroutines per thread; zero = the runtime's Depth

	// opts is what every runtime gets (the applications apply
	// ScaleAdaptation first). Its Telemetry, when set, receives every
	// runtime's instrumentation; with several compute blades each one's
	// names are prefixed "b<i>/".
	opts core.Options

	warmup, measure sim.Time // zero = 5 ms / 4 ms

	// targetRate, when positive, paces the run to about this many
	// operations per microsecond in aggregate: each coroutine spaces
	// its operations so that all of them together hit the target.
	targetRate float64

	// faults, when set, is installed on every compute blade's RNIC for
	// the whole run. nil keeps the cards byte-identical to the
	// fault-free model.
	faults rnic.Injector

	// sampleEvery and onSample, when both set, hand onSample a snapshot
	// of each compute RNIC's lifetime counters (blade order) every
	// sampleEvery of virtual time, until the horizon.
	sampleEvery sim.Time
	onSample    func(now sim.Time, snap rnic.Counters)

	// load preloads the application onto the cluster's memory blades
	// and returns the per-compute-blade client constructor.
	load func(cl *cluster.Cluster) newBladeFunc
}

// newBladeFunc builds compute blade b's client (the state its
// coroutines share) on the blade's runtime and returns that blade's
// coroutine constructor. It runs once the runtime, injector and sampler
// are in place and before the blade's coroutines are spawned, so a
// process it starts precedes them.
type newBladeFunc func(b int, rt *core.Runtime) newCoroFunc

// newCoroFunc builds coroutine d of thread ti — its generator, seeded
// with the protocol's own stride — and returns its one-operation body.
// The strides are part of the published numbers: changing one redraws
// every key sequence.
type newCoroFunc func(ti, d int) opFunc

// opFunc performs one operation that starts at start and returns the
// protocol's per-operation count (HT: failed CAS attempts of an update,
// DTX: aborts before the commit), or noCount for an operation that has
// none. appResult.counts is the distribution of these.
type opFunc func(c *core.Ctx, start sim.Time) int

const noCount = -1

// appResult is what every point measures. All of it is taken over the
// measurement window only.
type appResult struct {
	ops       uint64 // operations that started after warm-up and finished by the horizon
	mops      float64
	p50, p99  sim.Time
	casFailed uint64 // unsuccessful CAS attempts, all runtimes
	counts    *stats.CountDist

	// Compute-RNIC counters, summed over the compute blades.
	completed, dmaBytes, wqeMisses uint64
	verbMOPS                       float64 // completed per microsecond
}

// ScaleAdaptation shrinks SMART's adaptive time constants so that both
// mechanisms converge within the short simulated measurement windows
// (the paper runs real minutes; we simulate milliseconds). The ratios
// between the constants — Δ, the 60Δ stable phase, and the γ window —
// are preserved; see EXPERIMENTS.md for the time-scale substitution.
func ScaleAdaptation(o core.Options) core.Options {
	if o.UpdateDelta == 0 {
		o.UpdateDelta = 400 * sim.Microsecond
	}
	if o.RetryWindow == 0 {
		o.RetryWindow = 250 * sim.Microsecond
	}
	return o
}

// runApp executes one point: a closed loop of threads × coros
// coroutines per compute blade, each issuing a's operations back to
// back (or paced to a.targetRate) until the horizon. The order of its
// engine calls — per blade: runtime, injector, sampler, newBlade, then
// spawns thread-major — fixes event sequence numbers and with them
// every published number (DESIGN.md §12.1).
func runApp(a app) appResult {
	if a.threads <= 0 {
		a.threads = 16
	}
	if a.warmup == 0 {
		a.warmup = 5 * sim.Millisecond
	}
	if a.measure == 0 {
		a.measure = 4 * sim.Millisecond
	}
	horizon := a.warmup + a.measure

	cl := cluster.New(a.cluster)
	defer cl.Stop()
	newBlade := a.load(cl)

	lat, counts := stats.NewHist(), stats.NewCountDist()
	var ops uint64
	var interval sim.Time // pacing: ns between one coroutine's operation starts; set once all are spawned
	loop := func(op opFunc) func(*core.Ctx) {
		return func(c *core.Ctx) {
			for c.Now() < horizon {
				start := c.Now()
				n := op(c, start)
				if start >= a.warmup && c.Now() <= horizon {
					ops++
					lat.Add(c.Now() - start)
					if n != noCount {
						counts.Add(n)
					}
				}
				if interval > 0 {
					if spent := c.Now() - start; spent < interval {
						c.Proc().Sleep(interval - spent)
					}
				}
			}
		}
	}

	runtimes := make([]*core.Runtime, len(cl.Computes))
	tasks := 0
	for b, comp := range cl.Computes {
		if a.opts.Telemetry != nil && len(cl.Computes) > 1 {
			a.opts.TelemetryPrefix = fmt.Sprintf("b%d/", b)
		}
		rt := core.MustNew(comp.NIC, cl.Targets(), a.threads, a.opts)
		runtimes[b] = rt
		if a.faults != nil {
			comp.NIC.SetFault(a.faults)
		}
		if a.sampleEvery > 0 && a.onSample != nil {
			nic := comp.NIC
			cl.Eng.Every(a.sampleEvery, horizon, func(now sim.Time) { a.onSample(now, nic.Snapshot()) })
		}
		coros := a.coros
		if coros == 0 {
			coros = rt.Options().Depth // with core's default applied
		}
		newCoro := newBlade(b, rt)
		for ti := 0; ti < a.threads; ti++ {
			th := rt.Thread(ti)
			for d := 0; d < coros; d++ {
				th.Spawn(fmt.Sprintf("%s-b%d-t%d-c%d", a.name, b, ti, d), loop(newCoro(ti, d)))
				tasks++
			}
		}
	}
	if a.targetRate > 0 {
		interval = sim.Time(float64(tasks) / (a.targetRate / 1e3))
	}

	// The window's counters are the difference between two snapshots.
	// The warm-up one is taken from an event, which only reads: it
	// changes no state another event could observe.
	snapshot := func() (casFailed uint64, nic rnic.Counters) {
		for b, rt := range runtimes {
			casFailed += rt.TotalStats().CASFailed
			s := cl.Computes[b].NIC.Snapshot()
			nic.Completed += s.Completed
			nic.DMABytes += s.DMABytes
			nic.WQEMisses += s.WQEMisses
		}
		return casFailed, nic
	}
	var failedAtWarmup uint64
	var nicAtWarmup rnic.Counters
	cl.Eng.Schedule(a.warmup, func() { failedAtWarmup, nicAtWarmup = snapshot() })
	cl.Eng.Run(horizon)
	failed, nic := snapshot()
	for _, rt := range runtimes {
		rt.Stop()
		rt.Collect(a.opts.Telemetry)
	}

	sum := lat.Summary()
	windowUs := float64(a.measure) / 1e3
	completed := nic.Completed - nicAtWarmup.Completed
	return appResult{
		ops:       ops,
		mops:      float64(ops) / windowUs,
		p50:       sum.P50,
		p99:       sum.P99,
		casFailed: failed - failedAtWarmup,
		counts:    counts,
		completed: completed,
		dmaBytes:  nic.DMABytes - nicAtWarmup.DMABytes,
		wqeMisses: nic.WQEMisses - nicAtWarmup.WQEMisses,
		verbMOPS:  float64(completed) / windowUs,
	}
}
