// Package bench holds the measurement harnesses and, on top of them,
// one experiment runner per table and figure of the paper. RunMicro
// (this file) is the §3.1 bench tool; RunHT, RunBT and RunDTX describe
// the three applications to the one application harness, runApp
// (app.go). Each runner enumerates its points into a sweep.Set and
// fills typed result tables with the rows or series the paper reports;
// the root bench_test.go and cmd/smartbench expose the runners as
// testing.B benchmarks and a CLI respectively.
package bench

import (
	"math/rand"

	"repro/internal/blade"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// MicroConfig drives the §3.1 bench tool: every thread repeatedly
// posts Batch work requests to uniformly random addresses in a large
// region and waits for all of them.
type MicroConfig struct {
	Opts    core.Options
	Threads int
	Batch   int         // work requests per post round (the OWR depth)
	Op      rnic.OpKind // OpRead or OpWrite
	Payload int         // bytes per request (8 in the paper's figures)
	Blades  int         // memory blades (default 1)
	Region  uint64      // bytes of target region per blade (default 16 MiB)
	Warmup  sim.Time    // excluded from measurement (default 1 ms)
	Measure sim.Time    // measurement window (default 3 ms)
	Seed    int64
	Params  *rnic.Params

	// Dynamic workload (Table 1): when DynamicInterval > 0, the number
	// of active threads is re-drawn uniformly from
	// [DynamicMin, Threads] every interval.
	DynamicInterval sim.Time
	DynamicMin      int

	// Telemetry, when set, receives the run's software Neo-Host
	// instrumentation: live controller trajectories during the run and
	// the full layer-counter harvest afterwards.
	Telemetry *telemetry.Registry

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
// point.
func RunMicro(cfg MicroConfig) MicroResult {
	if cfg.Blades <= 0 {
		cfg.Blades = 1
	}
	if cfg.Region == 0 {
		cfg.Region = 16 << 20
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
	cl := cluster.New(cluster.Config{
		ComputeBlades: 1,
		MemoryBlades:  cfg.Blades,
		BladeCapacity: cfg.Region + (1 << 16),
		Seed:          cfg.Seed,
		Params:        cfg.Params,
		Batching:      cfg.Opts.Batching,
	})
	defer cl.Stop()
	eng := cl.Eng

	regions := make([]blade.Addr, cfg.Blades)
	for i, m := range cl.Memories {
		regions[i] = m.Mem.Alloc(cfg.Region)
	}

	cfg.Opts.Telemetry = cfg.Telemetry
	// The cluster is the source of truth for the batching config (the
	// cfg.Opts value seeded it above; reading it back picks up the
	// filled defaults) — the same wiring path smartbench -batching uses.
	cfg.Opts.Batching = cl.Batching
	rt := core.MustNew(cl.Computes[0].NIC, cl.Targets(), cfg.Threads, cfg.Opts)
	defer rt.Stop()

	horizon := cfg.Warmup + cfg.Measure
	nic := cl.Computes[0].NIC
	if cfg.Faults != nil {
		nic.SetFault(cfg.Faults)
	}
	if cfg.SampleEvery > 0 && cfg.OnSample != nil {
		var tick func()
		tick = func() {
			cfg.OnSample(eng.Now(), nic.Snapshot())
			if eng.Now() < horizon {
				eng.Schedule(cfg.SampleEvery, tick)
			}
		}
		eng.Schedule(cfg.SampleEvery, tick)
	}

	// Per-thread activity gates for the dynamic workload.
	active := make([]bool, cfg.Threads)
	gates := make([]*sim.WaitQueue, cfg.Threads)
	for i := range gates {
		active[i] = true
		gates[i] = sim.NewWaitQueue(eng)
	}
	if cfg.DynamicInterval > 0 {
		if cfg.DynamicMin <= 0 {
			cfg.DynamicMin = 1
		}
		ctlRng := rand.New(rand.NewSource(cfg.Seed + 7777))
		eng.Go("dyn-controller", func(p *sim.Proc) {
			for p.Now() < horizon {
				p.Sleep(cfg.DynamicInterval)
				n := cfg.DynamicMin + ctlRng.Intn(cfg.Threads-cfg.DynamicMin+1)
				for i := range active {
					wasActive := active[i]
					active[i] = i < n
					if active[i] && !wasActive {
						gates[i].Broadcast()
					}
				}
			}
		})
	}

	slots := cfg.Region / uint64(cfg.Payload)
	for i := 0; i < cfg.Threads; i++ {
		i := i
		th := rt.Thread(i)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*1009 + 1))
		th.Spawn("bench", func(c *core.Ctx) {
			buf := make([]byte, cfg.Payload)
			for c.Now() < horizon {
				for !active[i] && c.Now() < horizon {
					gates[i].Wait(c.Proc())
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
			}
		})
	}

	var s0 rnic.Counters
	eng.Schedule(cfg.Warmup, func() { s0 = nic.Snapshot() })
	eng.Run(horizon)
	s1 := nic.Snapshot()
	rt.Stop()
	rt.Collect(cfg.Telemetry)

	completed := s1.Completed - s0.Completed
	res := MicroResult{Completed: completed}
	if cfg.Opts.WorkReqThrottle && cfg.Threads > 0 {
		sum := 0
		for i := 0; i < cfg.Threads; i++ {
			sum += rt.Thread(i).CMax()
		}
		res.CMaxMean = float64(sum) / float64(cfg.Threads)
	}
	res.MOPS = float64(completed) / (float64(cfg.Measure) / 1e3)
	if completed > 0 {
		res.DMABytesPerWR = float64(s1.DMABytes-s0.DMABytes) / float64(completed)
		res.WQEMissRate = float64(s1.WQEMisses-s0.WQEMisses) / float64(completed)
	}
	return res
}
