package main

// ladder.go is the layer ladder: one single-proc closed-loop
// microdriver per layer, each a rung above the one before (kernel paths
// → RNIC.Submit → QP.PostSend/CQ.WaitN → Ctx.ReadSync → one
// application op). A rung's host ns/op minus the rung below, times the
// work requests per op, is that layer's self time — the ladder explains
// sim.run_ns_per_event the way spans explain setup_s.

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/blade"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ford"
	"repro/internal/perf"
	"repro/internal/race"
	"repro/internal/rnic"
	"repro/internal/sherman"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/verbs"
	"repro/internal/workload"
)

// rung is one microdriver's result, per operation.
type rung struct {
	name                    string
	ns, events, wrs, allocs float64
}

// ladder sizes the rungs: ops are divided by div and each rung keeps
// the fastest of trials timed trials.
type ladder struct{ div, trials int }

// measureRung times drive(ops) once as warm-up and l.trials more times,
// keeping the fastest trial's time: the one least disturbed by the host.
// The counts are the first timed trial's, because later trials continue
// the op stream (other keys, other transactions) and which of them is
// fastest is the host's choice. counters, when set, reads kernel events
// and completed work requests so far.
func (l ladder) measureRung(name string, ops int, counters func() (events, wrs uint64), drive func(ops int)) rung {
	ops /= l.div
	best := rung{name: name}
	for trial := 0; trial <= l.trials; trial++ {
		var ev0, wr0, ev1, wr1 uint64
		var m0, m1 runtime.MemStats
		if counters != nil {
			ev0, wr0 = counters()
		}
		runtime.ReadMemStats(&m0)
		start := time.Now()
		drive(ops)
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		if counters != nil {
			ev1, wr1 = counters()
		}
		n := float64(ops)
		r := rung{
			name: name, ns: float64(wall.Nanoseconds()) / n,
			events: float64(ev1-ev0) / n, wrs: float64(wr1-wr0) / n,
			allocs: float64(m1.Mallocs-m0.Mallocs) / n,
		}
		if trial == 1 {
			best = r
		} else if trial > 1 && r.ns < best.ns {
			best.ns = r.ns
		}
	}
	return best
}

// coroRung measures a rung whose op runs on a SMART coroutine: a fresh
// one-thread runtime over a small cluster, one coroutine per trial
// looping op. prepare preloads the cluster and returns the op.
func (l ladder) coroRung(name string, ops int, cfg cluster.Config, prepare func(cl *cluster.Cluster) func(c *core.Ctx, i int)) rung {
	cl := cluster.New(cfg)
	defer cl.Stop()
	op := prepare(cl)
	rt := core.MustNew(cl.Computes[0].NIC, cl.Targets(), 1, smartOpts())
	defer rt.Stop()
	counters := func() (uint64, uint64) { return cl.Eng.Events(), rt.TotalStats().WRs }
	return l.measureRung(name, ops, counters, func(n int) {
		done := false
		rt.Thread(0).Spawn(name, func(c *core.Ctx) {
			for i := 0; i < n; i++ {
				op(c, i)
			}
			done = true
		})
		// The runtime's housekeeping procs never finish, so the event
		// queue never drains: step until the coroutine is done.
		for !done && cl.Eng.Step() {
		}
	})
}

func smallCluster(kind blade.Kind, blades int) cluster.Config {
	return cluster.Config{ComputeBlades: 1, MemoryBlades: blades, MemoryKind: kind, BladeCapacity: 64 << 20, Seed: 1}
}

// frameworkRungs are the rungs every workload's path crosses.
func (l ladder) frameworkRungs() []rung {
	var out []rung
	if l.div == 1 { // perf.MeasureKernel has one fixed size, too slow for the smoke test
		for _, p := range perf.MeasureKernel() {
			out = append(out, rung{name: "kernel " + p.Path, ns: p.NsPerEvent, events: 1, allocs: p.AllocsPerEvent})
		}
	}
	out = append(out, l.rnicRung(), l.verbsRung())

	out = append(out, l.coroRung("core ReadSync", 50_000, smallCluster(blade.DRAM, 1), func(cl *cluster.Cluster) func(*core.Ctx, int) {
		addr := cl.Memories[0].Mem.Alloc(8)
		buf := make([]byte, 8)
		return func(c *core.Ctx, _ int) { c.ReadSync(addr, buf) }
	}))
	out = append(out, l.coroRung("core BackoffCASSync", 50_000, smallCluster(blade.DRAM, 1), func(cl *cluster.Cluster) func(*core.Ctx, int) {
		addr := cl.Memories[0].Mem.Alloc(8)
		next := uint64(0) // the word's current value: every CAS is uncontended and succeeds
		return func(c *core.Ctx, _ int) {
			c.BackoffCASSync(addr, next, next+1)
			next++
		}
	}))

	gen := workload.NewYCSB(rand.New(rand.NewSource(1)), 20_000, zipfTheta, workload.WriteHeavy)
	out = append(out, l.measureRung("workload YCSB.Next", 1_000_000, nil, func(n int) {
		for i := 0; i < n; i++ {
			gen.Next()
		}
	}))

	out = append(out, l.measureRung("sweep dispatch", 1000, nil, func(n int) {
		var set sweep.Set
		for i := 0; i < n; i++ {
			set.AddFunc("noop", int64(i), func() {}, nil)
		}
		sweep.New(2).Run(&set)
	}))
	return out
}

// rnicRung drives 8-byte READs straight through RNIC.Submit with
// no-op callbacks, 32 outstanding: the card model with nothing above.
func (l ladder) rnicRung() rung {
	eng := sim.New(1)
	defer eng.Stop()
	cn := rnic.New(eng, "compute", rnic.Default())
	mn := rnic.New(eng, "memory", rnic.Default())
	counters := func() (uint64, uint64) { return eng.Events(), cn.Snapshot().Completed }
	return l.measureRung("rnic Submit", 100_000, counters, func(n int) {
		const outstanding = 32
		left := n - outstanding
		ops := make([]rnic.Op, outstanding)
		for i := range ops {
			op := &ops[i]
			*op = rnic.Op{Kind: rnic.OpRead, Payload: 8, Exec: func() {}}
			op.Complete = func() {
				if left > 0 {
					left--
					op.Status = rnic.StatusSuccess
					cn.Submit(op, mn, blade.DRAM)
				}
			}
			cn.Submit(op, mn, blade.DRAM)
		}
		eng.Run(0)
	})
}

// verbsRung posts one READ and waits for its CQE, on one proc: the
// rnic rung plus QP lock, doorbell and completion queue.
func (l ladder) verbsRung() rung {
	eng := sim.New(1)
	defer eng.Stop()
	cn := rnic.New(eng, "compute", rnic.Default())
	mn := rnic.New(eng, "memory", rnic.Default())
	mem := blade.New(1, blade.DRAM, 1<<20)
	ctx := verbs.Open(cn)
	cq := ctx.CreateCQ()
	qp := ctx.CreateQP(cq, verbs.Target{NIC: mn, Mem: mem})
	addr := mem.Alloc(8)
	buf := make([]byte, 8)
	counters := func() (uint64, uint64) { return eng.Events(), cn.Snapshot().Completed }
	return l.measureRung("verbs PostSend+WaitN", 50_000, counters, func(n int) {
		eng.Go("poster", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				qp.PostSend(p, verbs.Read(addr, buf))
				cq.Recycle(cq.WaitN(p, 1))
			}
		})
		eng.Run(0)
	})
}

// appRungs are the rungs only one workload's path crosses; they run on
// that workload's traced run and read 0 elsewhere.
func (l ladder) appRungs(app string) []rung {
	const keys = 20_000
	switch app {
	case "race":
		stage := func(cl *cluster.Cluster) *race.Client {
			tbl := race.Create(cl.Targets(), race.Config{Groups: 256, InitialDepth: 3, MaxDepth: 8})
			for k := uint64(0); k < keys; k++ {
				tbl.LoadDirect(k, k)
			}
			return race.NewClient(tbl)
		}
		return []rung{
			l.coroRung("race Lookup", 20_000, smallCluster(blade.DRAM, 2), func(cl *cluster.Cluster) func(*core.Ctx, int) {
				client := stage(cl)
				return func(c *core.Ctx, i int) { client.Lookup(c, uint64(i)%keys) }
			}),
			l.coroRung("race Update", 20_000, smallCluster(blade.DRAM, 2), func(cl *cluster.Cluster) func(*core.Ctx, int) {
				client := stage(cl)
				return func(c *core.Ctx, i int) { client.Update(c, uint64(i)%keys, uint64(i)) }
			}),
		}
	case "sherman":
		return []rung{l.coroRung("sherman LookupSpec", 20_000, smallCluster(blade.DRAM, 1), func(cl *cluster.Cluster) func(*core.Ctx, int) {
			ks := make([]uint64, keys)
			for i := range ks {
				ks[i] = uint64(i + 1)
			}
			client := sherman.NewClient(sherman.BulkLoad(cl.Targets(), ks, 0.7), cl.Eng, true)
			// 1024 hot keys: after the warm-up trial every lookup hits
			// the speculative cache.
			return func(c *core.Ctx, i int) { client.LookupSpec(c, uint64(i)%1024+1) }
		})}
	case "ford":
		return []rung{l.coroRung("ford SmallBank.RunOne", 10_000, smallCluster(blade.NVM, 2), func(cl *cluster.Cluster) func(*core.Ctx, int) {
			sb := ford.NewSmallBank(cl.Targets(), keys)
			sb.Load()
			rng := rand.New(rand.NewSource(1))
			return func(c *core.Ctx, _ int) { sb.RunOne(c, rng) }
		})}
	}
	return nil
}
