package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/stats"
)

// app describes one point to runApp: how big a cluster it needs, how
// it is configured, and how its state and coroutines are built.
// RunMicro, RunHT, RunBT, RunDTX, RunServe and the chaos storm each map
// their config onto one of these; everything else about running a point
// is runApp's. It is a value: what the run measures comes back in
// runApp's appResult, the engine's fingerprint included.
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

	// load preloads the application onto the cluster's memory blades
	// and returns the per-compute-blade client constructor. It runs
	// before any runtime exists, so an engine call it makes (a
	// sampler's Every, serving's client processes) precedes theirs.
	load func(cl *cluster.Cluster) newBladeFunc
}

// newBladeFunc builds compute blade b's client (the state its
// coroutines share) on the blade's runtime and returns that blade's
// coroutine constructor. It runs once the runtime and injector are in
// place and before the blade's coroutines are spawned, so a process it
// starts precedes them.
type newBladeFunc func(b int, rt *core.Runtime) newCoroFunc

// newCoroFunc builds coroutine d of thread ti — its generator, seeded
// with the protocol's own stride — and returns its one-operation body.
// The strides are part of the published numbers: changing one redraws
// every key sequence.
type newCoroFunc func(ti, d int) opFunc

// opFunc performs one operation that runApp calls at start. It returns
// the operation's origin, the instant its latency runs from: start for
// a closed-loop op, or an earlier arrival for one that waited before
// the call (serving's request, admitted then queued). It also returns
// the protocol's per-operation count (HT: failed CAS attempts of an
// update, DTX: aborts before the commit), or noCount for an operation
// that has none. appResult.counts is the distribution of these.
type opFunc func(c *core.Ctx, start sim.Time) (origin sim.Time, n int)

const noCount = -1

// appResult is what every point measures. All of it is taken over the
// measurement window only.
type appResult struct {
	ops       uint64 // operations whose origin is past warm-up and that finished by the horizon
	mops      float64
	lat       stats.Summary // origin → return of the same ops
	casFailed uint64        // unsuccessful CAS attempts, all runtimes
	counts    *stats.CountDist

	// Compute-RNIC counters, summed over the compute blades.
	completed, dmaBytes, wqeMisses uint64
	verbMOPS                       float64 // completed per microsecond

	// fingerprint is the engine's event fingerprint at the horizon
	// (sim.Engine.Fingerprint), over the whole run. It reads the engine
	// only: no other result moves with it.
	fingerprint uint64
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

// runApp executes one point: threads × coros coroutines per compute
// blade, each issuing a's operations back to back (or paced to
// a.targetRate) until the horizon, and returns what it measured and the
// engine's fingerprint. The order of its engine calls — load, then per
// blade: runtime, injector, newBlade, then spawns thread-major — fixes
// event sequence numbers and with them every published number
// (DESIGN.md §12.1).
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
				origin, n := op(c, start)
				if origin >= a.warmup && c.Now() <= horizon {
					ops++
					lat.Add(c.Now() - origin)
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

	windowUs := float64(a.measure) / 1e3
	completed := nic.Completed - nicAtWarmup.Completed
	return appResult{
		ops:         ops,
		mops:        float64(ops) / windowUs,
		lat:         lat.Summary(),
		casFailed:   failed - failedAtWarmup,
		counts:      counts,
		completed:   completed,
		dmaBytes:    nic.DMABytes - nicAtWarmup.DMABytes,
		wqeMisses:   nic.WQEMisses - nicAtWarmup.WQEMisses,
		verbMOPS:    float64(completed) / windowUs,
		fingerprint: cl.Eng.Fingerprint(),
	}
}
