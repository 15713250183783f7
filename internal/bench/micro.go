// Package bench holds the measurement harnesses and, on top of them,
// one experiment runner per table and figure of the paper. There are two
// harnesses: runApp (app.go), the closed loop every point but serving
// runs on, and internal/serve's open loop. RunMicro (this file, the
// §3.1 bench tool), RunHT, RunBT, RunDTX and the chaos storm each
// describe themselves to runApp — cluster sizing, options, how to load
// and what one operation is — and map its result onto their own. Each
// runner enumerates its points into a sweep.Set and fills typed result
// tables with the rows or series the paper reports; cmd/smartbench is
// the CLI over the registry.
package bench

import (
	"math/rand"

	"repro/internal/blade"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rnic"
	"repro/internal/sim"
)

// microRegion is the bytes of target region per memory blade.
const microRegion = 16 << 20

// MicroConfig drives the §3.1 bench tool: every thread repeatedly
// posts Batch work requests to uniformly random addresses in a
// microRegion-byte region per blade and waits for all of them.
type MicroConfig struct {
	Opts    core.Options
	Threads int
	Batch   int         // work requests per post round (the OWR depth)
	Op      rnic.OpKind // OpRead or OpWrite
	Payload int         // bytes per request (8 in the paper's figures)
	Blades  int         // memory blades (default 1)
	Warmup  sim.Time    // excluded from measurement (default 1 ms)
	Measure sim.Time    // measurement window (default 3 ms)
	Seed    int64
	Params  *rnic.Params

	// Dynamic workload (Table 1): when DynamicInterval > 0, the number
	// of active threads is re-drawn uniformly from
	// [DynamicMin, Threads] every interval.
	DynamicInterval sim.Time
	DynamicMin      int

	// Faults, when set, is installed on the compute blade's RNIC for
	// the whole run (the chaos experiments). nil keeps the card
	// byte-identical to the fault-free model.
	Faults rnic.Injector

	// SampleEvery and OnSample, when both set, snapshot the compute
	// RNIC's counters every SampleEvery of virtual time — the recovery
	// trajectories the chaos shape checks consume. The sampler only
	// reads counters, so it cannot perturb the run.
	SampleEvery sim.Time
	OnSample    func(now sim.Time, snap rnic.Counters)
}

// MicroResult is one measured point.
type MicroResult struct {
	MOPS          float64 // completed work requests per microsecond
	DMABytesPerWR float64 // host DRAM traffic per work request (Fig. 4b)
	WQEMissRate   float64
	Completed     uint64

	// CMaxMean is the mean final C_max credit ceiling across threads
	// (0 unless WorkReqThrottle) — the batching ablation reads it to
	// show the §4.2 controller adopting larger grants under coalescing.
	CMaxMean float64
}

// RunMicro executes the micro-benchmark and returns the measured
// point: one coroutine per thread, each operation one post round. Unlike
// the applications it leaves cfg.Opts' adaptive time constants alone —
// callers that throttle pick their own Δ.
func RunMicro(cfg MicroConfig) MicroResult {
	if cfg.Blades <= 0 {
		cfg.Blades = 1
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = sim.Millisecond
	}
	if cfg.Measure == 0 {
		cfg.Measure = 3 * sim.Millisecond
	}
	if cfg.Payload == 0 {
		cfg.Payload = 8
	}
	horizon := cfg.Warmup + cfg.Measure
	slots := microRegion / uint64(cfg.Payload)
	var rt *core.Runtime
	r := runApp(app{
		name: "bench",
		cluster: cluster.Config{
			ComputeBlades: 1,
			MemoryBlades:  cfg.Blades,
			BladeCapacity: microRegion + (1 << 16),
			Seed:          cfg.Seed,
			Params:        cfg.Params,
		},
		threads:     cfg.Threads,
		coros:       1,
		opts:        cfg.Opts,
		warmup:      cfg.Warmup,
		measure:     cfg.Measure,
		faults:      cfg.Faults,
		sampleEvery: cfg.SampleEvery,
		onSample:    cfg.OnSample,
		load: func(cl *cluster.Cluster) newBladeFunc {
			regions := make([]blade.Addr, cfg.Blades)
			for i, m := range cl.Memories {
				regions[i] = m.Mem.Alloc(microRegion)
			}
			return func(_ int, bladeRT *core.Runtime) newCoroFunc {
				rt = bladeRT

				// The dynamic workload: threads [0, active) run, the rest
				// wait at their gate.
				active := cfg.Threads
				gates := make([]*sim.WaitQueue, cfg.Threads)
				for i := range gates {
					gates[i] = sim.NewWaitQueue(cl.Eng)
				}
				if cfg.DynamicInterval > 0 {
					if cfg.DynamicMin <= 0 {
						cfg.DynamicMin = 1
					}
					ctlRng := rand.New(rand.NewSource(cfg.Seed + 7777))
					cl.Eng.Go("dyn-controller", func(p *sim.Proc) {
						for p.Now() < horizon {
							p.Sleep(cfg.DynamicInterval)
							was := active
							active = cfg.DynamicMin + ctlRng.Intn(cfg.Threads-cfg.DynamicMin+1)
							for i := was; i < active; i++ {
								gates[i].Broadcast()
							}
						}
					})
				}

				return func(ti, _ int) opFunc {
					rng := rand.New(rand.NewSource(cfg.Seed + int64(ti)*1009 + 1))
					buf := make([]byte, cfg.Payload)
					return func(c *core.Ctx, _ sim.Time) int {
						for ti >= active && c.Now() < horizon {
							gates[ti].Wait(c.Proc())
						}
						// Each post round is one "operation" for the stats and
						// latency layer. Pure bookkeeping for the micro configs
						// (none enable coroutine throttling), so instrumented and
						// uninstrumented runs schedule identical events.
						c.BeginOp()
						for k := 0; k < cfg.Batch; k++ {
							b := rng.Intn(cfg.Blades)
							off := uint64(rng.Int63n(int64(slots))) * uint64(cfg.Payload)
							addr := regions[b].Add(off)
							switch cfg.Op {
							case rnic.OpWrite:
								c.Write(addr, buf)
							default:
								c.Read(addr, buf)
							}
						}
						c.PostSend()
						c.Sync()
						c.EndOp()
						return noCount
					}
				}
			}
		},
	})

	res := MicroResult{MOPS: r.verbMOPS, Completed: r.completed}
	if cfg.Opts.WorkReqThrottle {
		sum := 0
		for _, th := range rt.Threads() {
			sum += th.CMax()
		}
		res.CMaxMean = float64(sum) / float64(len(rt.Threads()))
	}
	if r.completed > 0 {
		res.DMABytesPerWR = float64(r.dmaBytes) / float64(r.completed)
		res.WQEMissRate = float64(r.wqeMisses) / float64(r.completed)
	}
	return res
}
