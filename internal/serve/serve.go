// Package serve is the open-loop serving layer over internal/cluster:
// client machines generate requests at a configured arrival rate
// (internal/arrival) regardless of whether the cluster keeps up, an
// admission stage routes each request to a compute-blade runtime, and
// a bounded per-runtime FIFO queue feeds the runtime's worker
// coroutines, which execute the request against the memory blades via
// the ordinary core one-sided verbs.
//
// The pipeline is admission → routing → queue → service:
//
//   - Admission happens at arrival time, in the generating client's
//     event context. If the chosen runtime's queue is full the request
//     is shed immediately (load is dropped, never buffered without
//     bound), which is what keeps latency finite past saturation.
//   - Routing is deterministic: join-shortest-queue with lowest-index
//     tie-break.
//   - Each runtime owns one bounded FIFO; its corosPerThread worker
//     coroutines per thread park on a wait queue when it drains.
//
// The cluster has one memory blade per runtime; each request READs
// payload bytes at a uniformly drawn slot of a uniformly drawn blade.
//
// Latency is accounted in two parts so overload is diagnosable: queue
// wait (admission to dequeue) and service time (dequeue to
// completion); the op histogram spans the full arrival-to-completion
// interval via core.Ctx.BeginOpSince. All percentiles include p999 —
// the SLO tail the capacity-planning experiment reports.
//
// Determinism rules (the same contract the rest of the repo pins):
// every random draw comes from a per-client rand stream seeded from
// Config.Seed, routing reads only engine-ordered state, and one Run
// touches only state it created — so equal seeds give byte-identical
// Results at any sweep parallelism.
package serve

import (
	"fmt"
	"math/rand"

	"repro/internal/arrival"
	"repro/internal/blade"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

const (
	corosPerThread = 4       // worker coroutines per thread
	payload        = 8       // bytes per READ
	region         = 1 << 20 // bytes of request targets per memory blade
)

// Config describes one open-loop serving run.
type Config struct {
	Runtimes          int // compute blades, one core.Runtime each
	ThreadsPerRuntime int
	Clients           int // client machines (default 4)

	// Arrival is the aggregate arrival spec across all clients; each
	// client carries an equal share. Required and must be valid.
	Arrival *arrival.Spec

	// TxnFrac is the fraction of requests that are transactions (a
	// READ followed by a FAA) rather than plain READs.
	TxnFrac float64

	QueueDepth int // per-runtime admission queue bound (default 64×threads)

	Warmup  sim.Time // excluded from measurement (default 400 µs)
	Measure sim.Time // measurement window (default 2 ms)
	Seed    int64

	// Opts is every runtime's configuration (policy, SMART knobs). Its
	// Telemetry, when set, receives serve/* admission counters, a
	// serve/qdepth trajectory group, and every runtime's layer harvest
	// under an "r<i>/" prefix.
	Opts core.Options
}

// Result is the measured outcome of one serving run. All counters
// cover requests that arrived inside the measurement window; latency
// summaries likewise only sample measured requests.
type Result struct {
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

// Validate reports a configuration Run cannot execute. The serving
// experiment's Validate calls it for every point up front, so a bad
// -arrival template is a usage error rather than a panicking sweep
// point.
func (cfg Config) Validate() error {
	if cfg.Runtimes < 1 || cfg.ThreadsPerRuntime < 1 {
		return fmt.Errorf("serve: need at least one runtime and one thread")
	}
	if cfg.Arrival == nil {
		return fmt.Errorf("serve: Config.Arrival is required")
	}
	if err := cfg.Arrival.Validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if !(cfg.TxnFrac >= 0 && cfg.TxnFrac <= 1) {
		return fmt.Errorf("serve: TxnFrac must be in [0, 1]")
	}
	return nil
}

// Run executes one open-loop serving simulation and returns its
// measured Result. It panics with Validate's error on a configuration
// that cannot run.
func Run(cfg Config) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64 * cfg.ThreadsPerRuntime
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 400 * sim.Microsecond
	}
	if cfg.Measure == 0 {
		cfg.Measure = 2 * sim.Millisecond
	}
	cl := cluster.New(cluster.Config{
		ComputeBlades: cfg.Runtimes,
		MemoryBlades:  cfg.Runtimes,
		Clients:       cfg.Clients,
		BladeCapacity: region + (1 << 16),
		Seed:          cfg.Seed,
	})
	defer cl.Stop()
	eng := cl.Eng
	horizon := cfg.Warmup + cfg.Measure
	reg := cfg.Opts.Telemetry

	regions := make([]blade.Addr, cfg.Runtimes)
	for i, m := range cl.Memories {
		regions[i] = m.Mem.Alloc(region)
	}

	runtimes := make([]*core.Runtime, cfg.Runtimes)
	for i, cb := range cl.Computes {
		opts := cfg.Opts
		if reg != nil {
			opts.TelemetryPrefix = fmt.Sprintf("r%d/", i)
		}
		runtimes[i] = core.MustNew(cb.NIC, cl.Targets(), cfg.ThreadsPerRuntime, opts)
	}

	queues := make([]*queue, cfg.Runtimes)
	for i := range queues {
		queues[i] = &queue{reqs: make([]request, cfg.QueueDepth), wq: sim.NewWaitQueue(eng)}
	}

	res := Result{
		PerRuntime: make([]uint64, cfg.Runtimes),
		PerBlade:   make([]uint64, cfg.Runtimes),
	}
	opHist, txnHist := stats.NewHist(), stats.NewHist()
	waitHist, svcHist := stats.NewHist(), stats.NewHist()

	var telOffered, telAdmitted, telShed, telCompleted *telemetry.Counter
	if reg != nil {
		telOffered = reg.Counter("serve/offered")
		telAdmitted = reg.Counter("serve/admitted")
		telShed = reg.Counter("serve/shed")
		telCompleted = reg.Counter("serve/completed")
		g := reg.Group("serve/qdepth", "admission queue depth", "us")
		names := make([]string, len(queues))
		for i := range names {
			names[i] = fmt.Sprintf("r%d", i)
			g.Def(names[i], "", 0)
		}
		interval := cfg.Measure / 64
		if interval < sim.Microsecond {
			interval = sim.Microsecond
		}
		eng.Every(interval, horizon, func(now sim.Time) {
			x := float64(now) / 1e3
			for i, q := range queues {
				g.Add(names[i], x, float64(q.n))
			}
		})
	}

	// route picks the runtime queue for the next request: the shortest,
	// ties to the lowest index.
	route := func() int {
		best := 0
		for i := 1; i < cfg.Runtimes; i++ {
			if queues[i].n < queues[best].n {
				best = i
			}
		}
		return best
	}

	measured := func(at sim.Time) bool { return at >= cfg.Warmup }

	// admit runs the admission + routing stage for one request, in the
	// generating client's event context.
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
		if q.n > res.QueueDepthPeak {
			res.QueueDepthPeak = q.n
		}
		if measured(r.at) {
			res.Admitted++
			res.PerRuntime[qi]++
		}
		if telAdmitted != nil {
			telAdmitted.Inc()
		}
		q.wq.Signal()
	}
	// admit never grows a queue past its bound, so the peak can only
	// be reported at or below QueueDepth; the backpressure test pins
	// that shedding, not buffering, absorbs overload.

	const slots = region / payload
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
				off := uint64(rng.Int63n(slots)) * payload
				admit(request{
					at:     p.Now(),
					txn:    rng.Float64() < cfg.TxnFrac,
					addr:   regions[b].Add(off),
					bladeI: b,
				})
			}
		})
	}

	for ri, rt := range runtimes {
		q := queues[ri]
		for ti := 0; ti < cfg.ThreadsPerRuntime; ti++ {
			th := rt.Thread(ti)
			for k := 0; k < corosPerThread; k++ {
				th.Spawn("serve-worker", func(c *core.Ctx) {
					buf := make([]byte, payload)
					for {
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
							if telCompleted != nil {
								telCompleted.Inc()
							}
						}
					}
				})
			}
		}
	}

	eng.Run(horizon)
	for _, rt := range runtimes {
		rt.Stop()
		rt.Collect(reg)
	}

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
