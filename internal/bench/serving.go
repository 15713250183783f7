package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/arrival"
	"repro/internal/blade"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/result"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Serving is the open-loop point: client machines generate requests at
// a configured arrival rate (internal/arrival) whether or not the
// cluster keeps up, an admission stage routes each request to a
// compute blade's runtime, and a bounded per-runtime FIFO queue feeds
// the runtime's worker coroutines, which serve the request against the
// memory blades with ordinary one-sided verbs. It is one more runApp
// descriptor: load sets up the open-loop half (clients, admission,
// queues), and each worker's operation takes one request and serves it.
//
// The pipeline is admission → routing → queue → service:
//
//   - Admission happens at arrival time, in the generating client's
//     event context. If the chosen runtime's queue is full the request
//     is shed immediately (load is dropped, never buffered without
//     bound), which is what keeps latency finite past saturation.
//   - Routing is deterministic: join-shortest-queue with lowest-index
//     tie-break.
//   - Each runtime owns one bounded FIFO of serveQueueSlots requests
//     per thread; its serveCoros worker coroutines per thread park on
//     a wait queue when it drains.
//
// The cluster has one memory blade per runtime; each request READs
// servePayload bytes at a uniformly drawn slot of a uniformly drawn
// blade.
//
// Latency is accounted in two parts so overload is diagnosable: queue
// wait (admission to dequeue) and service time (dequeue to
// completion); the op histogram spans the full arrival-to-completion
// interval via core.Ctx.BeginOpSince. All percentiles include p999 —
// the SLO tail the capacity-planning experiment reports.
//
// Every random draw comes from a per-client rand stream seeded from
// ServeConfig.Seed and routing reads only engine-ordered state, so
// equal seeds give byte-identical results at any sweep parallelism.
const (
	serveCoros      = 4       // worker coroutines per thread
	serveQueueSlots = 64      // admission queue bound per thread
	servePayload    = 8       // bytes per READ
	serveRegion     = 1 << 20 // bytes of request targets per memory blade
)

// ServeConfig describes one open-loop serving run.
type ServeConfig struct {
	Runtimes          int // compute blades, one core.Runtime each
	ThreadsPerRuntime int
	Clients           int // client machines (default 4)

	// Arrival is the aggregate arrival spec across all clients; each
	// client carries an equal share. Required and must be valid.
	Arrival *arrival.Spec

	// TxnFrac is the fraction of requests that are transactions (a
	// READ followed by a FAA) rather than plain READs.
	TxnFrac float64

	Warmup  sim.Time // excluded from measurement (default 400 µs)
	Measure sim.Time // measurement window (default 2 ms)
	Seed    int64

	// Opts is every runtime's configuration (policy, SMART knobs). Its
	// Telemetry, when set, receives serve/* counters over the whole run
	// (offered = admitted + shed; completed counts every request served
	// before the horizon), a serve/qdepth trajectory group with one
	// column "b<i>" per runtime, and every runtime's layer harvest
	// (prefixed "b<i>/" when there are several runtimes, as in runApp).
	Opts core.Options
}

// ServeResult is the measured outcome of one serving run. All counters
// cover requests that arrived inside the measurement window; latency
// summaries likewise only sample measured requests.
type ServeResult struct {
	Offered   uint64 // requests that arrived
	Admitted  uint64 // requests that entered a queue
	Shed      uint64 // requests dropped at admission (queue full)
	Completed uint64 // requests fully served before the horizon

	OfferedRate float64 // arrivals per µs over the window
	Goodput     float64 // completions per µs over the window
	ShedFrac    float64 // Shed / Offered (0 when nothing arrived)

	Op      stats.Summary // arrival → completion (what a client sees)
	Txn     stats.Summary // same, transactions only
	Wait    stats.Summary // arrival → dequeue
	Service stats.Summary // dequeue → completion

	PerRuntime []uint64 // admitted per runtime
	PerBlade   []uint64 // completed per memory blade

	QueueDepthPeak int // deepest any runtime queue ever got
}

// request is one open-loop unit of work.
type request struct {
	at     sim.Time // arrival (admission) time
	txn    bool
	addr   blade.Addr
	bladeI int // index into PerBlade
}

// queue is one runtime's bounded FIFO plus the wait queue its workers
// park on when it drains.
type queue struct {
	reqs []request // ring buffer, head..head+n
	head int
	n    int
	wq   *sim.WaitQueue
}

func (q *queue) push(r request) {
	i := (q.head + q.n) % len(q.reqs)
	q.reqs[i] = r
	q.n++
}

func (q *queue) pop() request {
	r := q.reqs[q.head]
	q.head = (q.head + 1) % len(q.reqs)
	q.n--
	return r
}

// Validate reports a configuration RunServe cannot execute. The serving
// experiment's Validate calls it for every point up front, so a bad
// -arrival template is a usage error rather than a panicking sweep
// point.
func (cfg ServeConfig) Validate() error {
	if cfg.Runtimes < 1 || cfg.ThreadsPerRuntime < 1 {
		return fmt.Errorf("serve: need at least one runtime and one thread")
	}
	if cfg.Arrival == nil {
		return fmt.Errorf("serve: ServeConfig.Arrival is required")
	}
	if err := cfg.Arrival.Validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if !(cfg.TxnFrac >= 0 && cfg.TxnFrac <= 1) {
		return fmt.Errorf("serve: TxnFrac must be in [0, 1]")
	}
	return nil
}

// RunServe executes one open-loop serving simulation and returns its
// measured result. It panics with Validate's error on a configuration
// that cannot run.
func RunServe(cfg ServeConfig) ServeResult {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 400 * sim.Microsecond
	}
	if cfg.Measure == 0 {
		cfg.Measure = 2 * sim.Millisecond
	}
	horizon := cfg.Warmup + cfg.Measure
	reg := cfg.Opts.Telemetry

	res := ServeResult{
		PerRuntime: make([]uint64, cfg.Runtimes),
		PerBlade:   make([]uint64, cfg.Runtimes),
	}
	opHist, txnHist := stats.NewHist(), stats.NewHist()
	waitHist, svcHist := stats.NewHist(), stats.NewHist()
	measured := func(at sim.Time) bool { return at >= cfg.Warmup }

	// load stages the open-loop half before any runtime exists: the
	// request regions, the queues, the serve/* instrumentation and the
	// client arrival processes. Workers get their runtime's queue.
	load := func(cl *cluster.Cluster) newBladeFunc {
		eng := cl.Eng
		regions := make([]blade.Addr, cfg.Runtimes)
		for i, m := range cl.Memories {
			regions[i] = m.Mem.Alloc(serveRegion)
		}
		queues := make([]*queue, cfg.Runtimes)
		for i := range queues {
			queues[i] = &queue{reqs: make([]request, serveQueueSlots*cfg.ThreadsPerRuntime), wq: sim.NewWaitQueue(eng)}
		}

		var telOffered, telAdmitted, telShed, telCompleted *telemetry.Counter
		if reg != nil {
			telOffered = reg.Counter("serve/offered")
			telAdmitted = reg.Counter("serve/admitted")
			telShed = reg.Counter("serve/shed")
			telCompleted = reg.Counter("serve/completed")
			g := reg.Group("serve/qdepth", "admission queue depth", "us")
			names := make([]string, len(queues))
			for i := range names {
				names[i] = fmt.Sprintf("b%d", i)
				g.Def(names[i], "", 0)
			}
			interval := max(cfg.Measure/64, sim.Microsecond)
			eng.Every(interval, horizon, func(now sim.Time) {
				x := float64(now) / 1e3
				for i, q := range queues {
					g.Add(names[i], x, float64(q.n))
				}
			})
		}

		// route picks the runtime queue for the next request: the
		// shortest, ties to the lowest index.
		route := func() int {
			best := 0
			for i := 1; i < cfg.Runtimes; i++ {
				if queues[i].n < queues[best].n {
					best = i
				}
			}
			return best
		}

		// admit runs the admission + routing stage for one request, in
		// the generating client's event context. It never grows a queue
		// past its bound, so the peak is at most the bound; the
		// backpressure test pins that shedding, not buffering, absorbs
		// overload.
		admit := func(r request) {
			if measured(r.at) {
				res.Offered++
			}
			if telOffered != nil {
				telOffered.Inc()
			}
			qi := route()
			q := queues[qi]
			if q.n == len(q.reqs) {
				if measured(r.at) {
					res.Shed++
				}
				if telShed != nil {
					telShed.Inc()
				}
				return
			}
			q.push(r)
			res.QueueDepthPeak = max(res.QueueDepthPeak, q.n)
			if measured(r.at) {
				res.Admitted++
				res.PerRuntime[qi]++
			}
			if telAdmitted != nil {
				telAdmitted.Inc()
			}
			q.wq.Signal()
		}

		const slots = serveRegion / servePayload
		for ci := range cl.Clients {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(ci)*9973 + 101))
			proc := cfg.Arrival.New(rng, cfg.Clients)
			eng.Go(fmt.Sprintf("client-%d", ci), func(p *sim.Proc) {
				for {
					p.Sleep(proc.Next())
					if p.Now() >= horizon {
						return
					}
					b := rng.Intn(cfg.Runtimes)
					off := uint64(rng.Int63n(slots)) * servePayload
					admit(request{
						at:     p.Now(),
						txn:    rng.Float64() < cfg.TxnFrac,
						addr:   regions[b].Add(off),
						bladeI: b,
					})
				}
			})
		}

		return func(b int, _ *core.Runtime) newCoroFunc {
			q := queues[b]
			return func(_, _ int) opFunc {
				buf := make([]byte, servePayload)
				// One operation: wait for a request, then serve it.
				return func(c *core.Ctx, _ sim.Time) int {
					for q.n == 0 {
						q.wq.Wait(c.Proc())
					}
					req := q.pop()
					start := c.Now()
					c.BeginOpSince(req.at)
					c.ReadSync(req.addr, buf)
					if req.txn {
						c.FAASync(req.addr, 1)
					}
					c.EndOp()
					if measured(req.at) {
						now := c.Now()
						res.Completed++
						res.PerBlade[req.bladeI]++
						opHist.Add(now - req.at)
						waitHist.Add(start - req.at)
						svcHist.Add(now - start)
						if req.txn {
							txnHist.Add(now - req.at)
						}
					}
					if telCompleted != nil {
						telCompleted.Inc()
					}
					return noCount
				}
			}
		}
	}

	runApp(app{
		name: "serve",
		cluster: cluster.Config{
			ComputeBlades: cfg.Runtimes,
			MemoryBlades:  cfg.Runtimes,
			Clients:       cfg.Clients,
			BladeCapacity: serveRegion + (1 << 16),
			Seed:          cfg.Seed,
		},
		threads: cfg.ThreadsPerRuntime,
		coros:   serveCoros,
		opts:    cfg.Opts,
		warmup:  cfg.Warmup,
		measure: cfg.Measure,
		load:    load,
	})

	us := float64(cfg.Measure) / 1e3
	res.OfferedRate = float64(res.Offered) / us
	res.Goodput = float64(res.Completed) / us
	if res.Offered > 0 {
		res.ShedFrac = float64(res.Shed) / float64(res.Offered)
	}
	res.Op = opHist.Summary()
	res.Txn = txnHist.Summary()
	res.Wait = waitHist.Summary()
	res.Service = svcHist.Summary()
	return res
}

// The serving experiment is the open-loop capacity-planning study
// over RunServe: sweep the offered arrival rate × the
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

// servingSeed is every serving point's base workload seed.
const servingSeed = 15

// servingOverloadFrac places the instrumented overload point an
// -telemetry run adds: the swept template at this multiple of the small
// topology's nominal capacity.
const servingOverloadFrac = 2.5

// topo is one serving topology: compute blades (= memory blades) and
// threads per runtime.
type topo struct{ runtimes, threads int }

// label renders the topology as the tables and checks name it.
func (t topo) label() string { return fmt.Sprintf("%dx%d", t.runtimes, t.threads) }

// nominal is the topology's calibrated capacity in ops/µs: the unit of
// the serving load fractions.
func (t topo) nominal() float64 {
	return servingPerThreadCapacity * float64(t.runtimes*t.threads)
}

// servingGrid returns the topology × load-fraction grid. The quick
// grid keeps the exact fractions and the two smaller topologies the
// shape checks reference, so -quick -check exercises every predicate.
// topos[0] also carries the burstiness panel and the overload point,
// and topos[1] gets the latency-breakdown table.
func servingGrid(quick bool) (topos []topo, fracs []float64) {
	topos = []topo{{1, 8}, {2, 16}}
	fracs = []float64{0.25, 0.5, 1.5, 2.5}
	if !quick {
		topos = append(topos, topo{4, 32})
		fracs = []float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5}
	}
	return topos, fracs
}

// servingTemplate is the arrival process the sweep rescales per point:
// env.Arrival (-arrival), or the calibrated Poisson default. Specs are
// immutable and New draws from each point's own rand stream, so
// concurrent points may share one.
func servingTemplate(env Env) *arrival.Spec {
	if env.Arrival != nil {
		return env.Arrival
	}
	return &arrival.Spec{Kind: arrival.KindPoisson, Rate: 4}
}

// servingConfig is one serving point: topology t offered a at frac
// times t's nominal capacity. The M/M/c sanity test shares it, so the
// analytic knee check measures the exact station the sweep runs.
func servingConfig(t topo, a *arrival.Spec, frac float64) ServeConfig {
	return ServeConfig{
		Runtimes:          t.runtimes,
		ThreadsPerRuntime: t.threads,
		Arrival:           a.WithMeanRate(frac * t.nominal()),
		TxnFrac:           servingTxnFrac,
		Opts:              core.Baseline(core.PerThreadDoorbell),
	}
}

// validateServing rejects an arrival template that some point's load
// rescales into a configuration RunServe refuses (a rate past the
// arrival model's cap), before any point runs.
func validateServing(env Env) error {
	a := servingTemplate(env)
	check := func(t topo, frac float64) error {
		if err := servingConfig(t, a, frac).Validate(); err != nil {
			return fmt.Errorf("topology %s at load %v: %w", t.label(), frac, err)
		}
		return nil
	}
	topos, fracs := servingGrid(env.Quick)
	for _, t := range topos {
		for _, frac := range fracs {
			if err := check(t, frac); err != nil {
				return err
			}
		}
	}
	return check(topos[0], servingOverloadFrac)
}

// runServing runs the topology × load-fraction grid, the burstiness
// panel, and — when env.Telemetry is non-nil — the instrumented
// overload point, which fills the registry and adds no table.
func runServing(env Env) []result.Table {
	template := servingTemplate(env)
	topos, fracs := servingGrid(env.Quick)
	small, breakdown := topos[0], topos[1].label()

	g := newGrid(env)
	p99 := g.table("serving-p99",
		"Serving — op p99 latency vs offered load (fraction of nominal capacity)", "load")
	p99.XUnit, p99.YUnit, p99.Prec = "x capacity", "us", 2
	good := g.table("serving-goodput",
		"Serving — goodput (and offered load) vs load fraction", "load")
	good.XUnit, good.YUnit, good.Prec = "x capacity", "ops/us", 2
	shed := g.table("serving-shed",
		"Serving — shed fraction vs load fraction", "load")
	shed.XUnit, shed.YUnit, shed.Prec = "x capacity", "frac", 4
	lat := g.table("serving-latency",
		fmt.Sprintf("Serving — latency breakdown on the %s topology", breakdown), "load")
	lat.XUnit, lat.YUnit, lat.Prec = "x capacity", "us", 2

	for _, t := range topos {
		cfgLabel := t.label()
		for _, frac := range fracs {
			add(g, fmt.Sprintf("serving/%s/load=%.2f", cfgLabel, frac), servingSeed,
				servingConfig(t, template, frac),
				func(r ServeResult) {
					p99.Add(cfgLabel, frac, us(r.Op.P99))
					good.Add(cfgLabel, frac, r.Goodput)
					good.Add(cfgLabel+"-offered", frac, r.OfferedRate)
					shed.Add(cfgLabel, frac, r.ShedFrac)
					if cfgLabel == breakdown {
						lat.Add("op-p50", frac, us(r.Op.P50))
						lat.Add("op-p99", frac, us(r.Op.P99))
						lat.Add("op-p999", frac, us(r.Op.P999))
						lat.Add("txn-p99", frac, us(r.Txn.P99))
						lat.Add("wait-p99", frac, us(r.Wait.P99))
						lat.Add("service-p99", frac, us(r.Service.P99))
					}
				})
		}
	}

	// Burstiness panel: each arrival process at matched mean rate on
	// the small topology, whatever -arrival says. The bursty process
	// transiently exceeds capacity, so the tail must suffer even though
	// the mean load is below the knee.
	burstFracs := []float64{0.33, 0.5, 0.66}
	if env.Quick {
		burstFracs = []float64{0.5}
	}
	burst := g.table("serving-burst",
		fmt.Sprintf("Serving — arrival burstiness vs op p99 at matched mean rate (%s)", small.label()), "load")
	burst.XUnit, burst.YUnit, burst.Prec = "x capacity", "us", 2
	for _, b := range []struct {
		name string
		a    *arrival.Spec
	}{
		{"poisson", &arrival.Spec{Kind: arrival.KindPoisson, Rate: 4}},
		{"mmpp", &arrival.Spec{Kind: arrival.KindMMPP, High: 8, Low: 1, On: 200 * sim.Microsecond, Off: 600 * sim.Microsecond}},
	} {
		for _, frac := range burstFracs {
			cfg := servingConfig(small, b.a, frac)
			// One client machine keeps bursty on-phases correlated —
			// independent per-client phases would smooth the aggregate
			// back toward Poisson.
			cfg.Clients = 1
			add(g, fmt.Sprintf("serving/burst/%s/load=%.2f", b.name, frac), servingSeed,
				cfg, func(r ServeResult) { burst.Add(b.name, frac, us(r.Op.P99)) })
		}
	}

	// With a registry, one overloaded point carries it (admission
	// counters, qdepth trajectory, runtime harvests). Enumerated last so
	// the plain grid above is untouched; the point owns the registry
	// exclusively.
	if env.Telemetry != nil {
		cfg := servingConfig(small, template, servingOverloadFrac)
		cfg.Opts.Telemetry = env.Telemetry
		add(g, fmt.Sprintf("serving/telemetry/%s/load=%.2f", small.label(), servingOverloadFrac), servingSeed,
			cfg, nil)
	}

	return g.run()
}

// -arrival sets env.Arrival; the burst-comparison table always runs its
// own poisson and mmpp processes regardless of it. A non-nil
// env.Telemetry adds the instrumented overload point, whose registry
// export rides along after the result tables.
func init() {
	register(&Experiment{
		ID:           "serving",
		Title:        "Open-loop serving capacity: SLO percentiles and goodput vs offered load x topology",
		Category:     "serving",
		Instrumented: true,
		Validate:     validateServing,
		Run:          runServing,
	})
}
