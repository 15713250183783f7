package main

// replica.go re-stages each workload's SMART point against the layers'
// public API, in the order the harness calls them, with a span around
// each call group and counters read at the boundaries. It is how the
// benchmark measures the layers from outside: the harness in
// internal/bench is never edited. The sizing formulas and seed
// derivations below are copies of the harness's; bench.replica_ops_match
// reports 0 as soon as the two drift apart.

import (
	"fmt"
	"math/rand"

	"repro/internal/blade"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ford"
	"repro/internal/race"
	"repro/internal/rnic"
	"repro/internal/sherman"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// replica is one staged execution of a workload's SMART point.
type replica struct {
	tr      *tracer // nil = untraced
	sh      shape
	seed    int64
	horizon sim.Time
	ops     uint64 // completed inside the measure window, counted by the op bodies
}

// inWindow mirrors the harnesses' accounting rule for one finished op.
func (r *replica) inWindow(start, now sim.Time) {
	if start >= r.sh.warmup && now <= r.horizon {
		r.ops++
	}
}

// app is what a workload's stage function hands the skeleton: the
// preloaded application state, reduced to what the skeleton drives.
type app struct {
	coros int // coroutines per thread; 0 = the runtime's Depth
	// body builds coroutine (thread, coro)'s generator and returns its
	// closed op loop, exactly as the harness does inside its spawn loop.
	body func(thread, coro int) func(*core.Ctx)
	// verify re-reads a 1-in-100 sample of the preloaded keys after the
	// run, bypassing RDMA. nil when the workload preloads nothing.
	verify func() (checked, missing int)
}

// replicaResult is what one staged execution measured.
type replicaResult struct {
	ops              uint64 // as the harness would report them
	checked, missing int    // preloaded-key sample

	// Counts at the end of the run ([C] metrics).
	events, parks uint64
	nic           rnic.Counters
	utilization   float64
	stats         core.ThreadStats
	cmaxMean      float64
	dbContended   float64
}

// runReplica executes the SMART point of w stage by stage. Spans (when
// r.tr is set) nest under one root span per point.
func runReplica(w workloadDef, r *replica) replicaResult {
	tr := r.tr
	r.horizon = r.sh.warmup + r.sh.measure
	endPoint := tr.begin("point " + w.name)
	defer endPoint()

	end := tr.begin("cluster.build")
	cl := cluster.New(w.cluster(r.sh, r.seed))
	end()
	eng, nic := cl.Eng, cl.Computes[0].NIC

	loadSpan := "app.load"
	if w.app != "" {
		loadSpan = w.app + ".load"
	}
	end = tr.begin(loadSpan)
	a := w.stage(cl, r)
	end()

	end = tr.begin("core.runtime_new")
	rt := core.MustNew(nic, cl.Targets(), r.sh.threads, smartOpts())
	end()

	coros := a.coros
	if coros == 0 {
		coros = rt.Options().Depth
	}
	end = tr.begin("spawn loop")
	for ti := 0; ti < r.sh.threads; ti++ {
		th := rt.Thread(ti)
		for d := 0; d < coros; d++ {
			body := a.body(ti, d)
			endSpawn := tr.begin("core.spawn")
			th.Spawn(fmt.Sprintf("%s-t%d-c%d", w.name, ti, d), body)
			endSpawn()
		}
	}
	end()

	// The harnesses snapshot their window counters from an event
	// scheduled at the warm-up boundary; scheduling the same event keeps
	// the replica's event sequence aligned with theirs.
	var atWarmup rnic.Counters
	eng.Schedule(r.sh.warmup, func() { atWarmup = nic.Snapshot() })
	events0 := eng.Events()
	end = tr.begin("sim.run")
	endPhase := tr.begin("sim.run warmup")
	eng.Run(r.sh.warmup)
	endPhase()
	endPhase = tr.begin("sim.run measure")
	eng.Run(r.horizon)
	endPhase()
	end()

	res := replicaResult{
		ops:         r.ops,
		events:      eng.Events() - events0,
		parks:       eng.Parks(),
		nic:         nic.Snapshot(),
		utilization: nic.Utilization(),
	}
	if w.app == "" { // the bench tool counts completed work requests
		res.ops = res.nic.Completed - atWarmup.Completed
	}

	end = tr.begin("core.stop+collect")
	rt.Stop()
	reg := telemetry.New()
	rt.Collect(reg)
	end()
	res.stats = rt.TotalStats()
	for _, th := range rt.Threads() {
		res.cmaxMean += float64(th.CMax()) / float64(r.sh.threads)
	}
	if acq := reg.Value("db/acquisitions-total"); acq > 0 {
		res.dbContended = float64(reg.Value("db/contended-total")) / float64(acq)
	}
	if a.verify != nil {
		end = tr.begin("verify sample")
		res.checked, res.missing = a.verify()
		end()
	}

	end = tr.begin("sim.stop")
	cl.Stop()
	end()
	return res
}

// sampleKeys calls found for every 100th key below n and counts misses.
func sampleKeys(n uint64, found func(k uint64) bool) (checked, missing int) {
	for k := uint64(0); k < n; k += 100 {
		checked++
		if !found(k) {
			missing++
		}
	}
	return checked, missing
}

// ycsbBody is the op loop RunHT and RunBT share: draw (op, key), run
// it, account it. The generator is built here, under its own span,
// because that is where the harness builds it — once per coroutine.
func ycsbBody(r *replica, seed int64, mix workload.Mix, do func(c *core.Ctx, op workload.OpType, key uint64, start sim.Time)) func(*core.Ctx) {
	end := r.tr.begin("workload.gen_build")
	gen := workload.NewYCSB(rand.New(rand.NewSource(seed)), r.sh.keys, zipfTheta, mix)
	end()
	return func(c *core.Ctx) {
		for c.Now() < r.horizon {
			op, key := gen.Next()
			start := c.Now()
			do(c, op, key, start)
			r.inWindow(start, c.Now())
		}
	}
}

// --- micro_read: bench.RunMicro ---

func microCluster(_ shape, seed int64) cluster.Config {
	return cluster.Config{ComputeBlades: 1, MemoryBlades: 1, BladeCapacity: microRegion + (1 << 16), Seed: seed}
}

func stageMicro(cl *cluster.Cluster, r *replica) *app {
	region := cl.Memories[0].Mem.Alloc(microRegion)
	const slots = microRegion / microPayload
	return &app{coros: 1, body: func(ti, _ int) func(*core.Ctx) {
		rng := rand.New(rand.NewSource(r.seed + int64(ti)*1009 + 1))
		return func(c *core.Ctx) {
			buf := make([]byte, microPayload)
			for c.Now() < r.horizon {
				c.BeginOp()
				for k := 0; k < microBatch; k++ {
					rng.Intn(1) // the harness draws a blade index even with one blade
					off := uint64(rng.Int63n(slots)) * microPayload
					c.Read(region.Add(off), buf)
				}
				c.PostSend()
				c.Sync()
				c.EndOp()
			}
		}
	}}
}

// --- ht_write: bench.RunHT ---

func htCluster(sh shape, seed int64) cluster.Config {
	const blades = 2
	per := sh.keys * 64 / blades
	if per < 64<<20 {
		per = 64 << 20
	}
	return cluster.Config{ComputeBlades: 1, MemoryBlades: blades, BladeCapacity: per + (64 << 20), Seed: seed}
}

func stageHT(cl *cluster.Cluster, r *replica) *app {
	groups := int(float64(r.sh.keys/8) / (14 * 0.6))
	if groups < 64 {
		groups = 64
	}
	tbl := race.Create(cl.Targets(), race.Config{Groups: groups, InitialDepth: 3, MaxDepth: 8})
	for k := uint64(0); k < r.sh.keys; k++ {
		tbl.LoadDirect(k, k)
	}
	client := race.NewClient(tbl)
	return &app{
		body: func(ti, d int) func(*core.Ctx) {
			seed := r.seed + int64(ti)*1_009 + int64(d)*13 + 1
			return ycsbBody(r, seed, workload.WriteHeavy, func(c *core.Ctx, op workload.OpType, key uint64, start sim.Time) {
				if op == workload.Update {
					client.Update(c, key, uint64(start))
				} else {
					client.Lookup(c, key)
				}
			})
		},
		verify: func() (int, int) {
			return sampleKeys(r.sh.keys, func(k uint64) bool { _, ok := tbl.GetDirect(k); return ok })
		},
	}
}

// --- bt_read: bench.RunBT ---

func btCluster(sh shape, seed int64) cluster.Config {
	return cluster.Config{ComputeBlades: 1, MemoryBlades: 1, BladeCapacity: sh.keys*40 + (64 << 20), Seed: seed}
}

func stageBT(cl *cluster.Cluster, r *replica) *app {
	keys := make([]uint64, r.sh.keys)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	tree := sherman.BulkLoad(cl.Targets(), keys, 0.7)
	client := sherman.NewClient(tree, cl.Eng, true)
	return &app{
		body: func(ti, d int) func(*core.Ctx) {
			seed := r.seed + int64(ti)*1_013 + int64(d)*17 + 1
			return ycsbBody(r, seed, workload.ReadOnly, func(c *core.Ctx, op workload.OpType, key uint64, start sim.Time) {
				key++ // tree keys are 1-based
				if op == workload.Update {
					client.Update(c, key, uint64(start))
				} else {
					client.LookupSpec(c, key)
				}
			})
		},
		verify: func() (int, int) {
			return sampleKeys(r.sh.keys, func(k uint64) bool { _, ok := tree.GetDirect(k + 1); return ok })
		},
	}
}

// --- dtx_smallbank: bench.RunDTX ---

func dtxCluster(sh shape, seed int64) cluster.Config {
	const blades = 2
	return cluster.Config{
		ComputeBlades: 1, MemoryBlades: blades, MemoryKind: blade.NVM,
		BladeCapacity: sh.keys*600/blades + (128 << 20), Seed: seed,
	}
}

func stageDTX(cl *cluster.Cluster, r *replica) *app {
	sb := ford.NewSmallBank(cl.Targets(), r.sh.keys)
	sb.Load()
	return &app{
		body: func(ti, d int) func(*core.Ctx) {
			rng := rand.New(rand.NewSource(r.seed + int64(ti)*1_021 + int64(d)*19 + 1))
			return func(c *core.Ctx) {
				for c.Now() < r.horizon {
					start := c.Now()
					sb.RunOne(c, rng)
					r.inWindow(start, c.Now())
				}
			}
		},
		verify: func() (int, int) {
			return sampleKeys(r.sh.keys, func(k uint64) bool {
				return len(sb.DB.ReadDirect("savings", k)) == 8 && len(sb.DB.ReadDirect("checking", k)) == 8
			})
		},
	}
}
