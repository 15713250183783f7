package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/result"
	"repro/internal/workload"
)

// htKeys is the loaded key count for hash-table experiments. The paper
// loads 100 M items; we scale down (see DESIGN.md) — skew and per-op
// verb counts, which determine every curve, are unchanged.
const htKeys = 200_000

// htMixes returns the three YCSB mixes the application figures sweep.
// A function rather than a package var so the runner package carries
// no shared mutable state (smartlint sharedstate).
func htMixes() []workload.Mix {
	return []workload.Mix{workload.WriteHeavy, workload.ReadHeavy, workload.ReadOnly}
}

// fig8Configs is the cumulative technique breakdown.
func fig8Configs() []struct {
	name string
	opts core.Options
} {
	thd := core.Baseline(core.PerThreadDoorbell)
	wrk := thd
	wrk.WorkReqThrottle = true
	all := core.Smart()
	return []struct {
		name string
		opts core.Options
	}{
		{"RACE", RACEBaseline()},
		{"+ThdResAlloc", thd},
		{"+WorkReqThrot", wrk},
		{"+ConflictAvoid", all},
	}
}

// defLatencySeries declares the standard throughput + latency columns
// (the rate series' name is its own unit: "MOPS" or "MTPS").
func defLatencySeries(t *result.Table, rate string) {
	t.Def(rate, "", 2)
	t.Def("p50", "us", 1)
	t.Def("p99", "us", 1)
}

func init() {
	register(&Experiment{
		ID:    "fig5",
		Title: "Fig. 5: RACE hash-table update performance vs threads and vs skew",
		Run: func(env Env) []result.Table {
			g := newGrid(env)
			a := g.table("fig5a", "Fig. 5a — RACE 100% updates, Zipf 0.99: MOPS / p50 / p99 vs threads (depth 8)", "threads")
			defLatencySeries(a, "MOPS")
			a.Def("retries/upd", "", 2)
			for _, thr := range threadGrid(env.Quick) {
				x := float64(thr)
				add(g, fmt.Sprintf("fig5a/thr=%d", thr), 21,
					HTConfig{Opts: RACEBaseline(), ThreadsPerBlade: thr, Theta: 0.99, Mix: workload.UpdateOnly, Keys: htKeys},
					func(r HTResult) {
						a.Add("MOPS", x, r.MOPS)
						a.Add("p50", x, us(r.Median))
						a.Add("p99", x, us(r.P99))
						a.Add("retries/upd", x, r.AvgRetries)
					})
			}

			thetas := []float64{0, 0.5, 0.9, 0.99}
			if env.Quick {
				thetas = []float64{0, 0.99}
			}
			b := g.table("fig5b", "Fig. 5b — RACE 100% updates, 16 threads: latency vs Zipf theta", "theta")
			defLatencySeries(b, "MOPS")
			for _, th := range thetas {
				add(g, fmt.Sprintf("fig5b/theta=%g", th), 21,
					HTConfig{Opts: RACEBaseline(), ThreadsPerBlade: 16, Theta: th, Mix: workload.UpdateOnly, Keys: htKeys},
					func(r HTResult) {
						b.Add("MOPS", th, r.MOPS)
						b.Add("p50", th, us(r.Median))
						b.Add("p99", th, us(r.P99))
					})
			}
			return g.run()
		},
	})

	register(&Experiment{
		ID:    "fig7",
		Title: "Fig. 7: hash table throughput, RACE vs SMART-HT (scale-up and scale-out)",
		Run: func(env Env) []result.Table {
			systems := []struct {
				name string
				opts core.Options
			}{{"RACE", RACEBaseline()}, {"SMART-HT", core.Smart()}}
			g := newGrid(env)
			for _, mix := range htMixes() {
				t := g.table("fig7-scaleup-"+mix.Name,
					fmt.Sprintf("Fig. 7(a-c) — %s, 1 compute blade: MOPS vs threads", mix.Name), "threads")
				t.YUnit = "MOPS"
				for _, thr := range threadGrid(env.Quick) {
					for _, sys := range systems {
						add(g, fmt.Sprintf("%s/%s/thr=%d", t.ID, sys.name, thr), 22,
							HTConfig{Opts: sys.opts, ThreadsPerBlade: thr, Theta: 0.99, Mix: mix, Keys: htKeys},
							func(r HTResult) { t.Add(sys.name, float64(thr), r.MOPS) })
					}
				}
			}
			blades := []int{1, 2, 3, 4, 5, 6}
			threads := 96
			if env.Quick {
				blades = []int{1, 4}
				threads = 32
			}
			for _, mix := range htMixes() {
				t := g.table("fig7-scaleout-"+mix.Name,
					fmt.Sprintf("Fig. 7(d-f) — %s, %d threads/blade: MOPS vs compute blades", mix.Name, threads), "blades")
				t.YUnit = "MOPS"
				for _, b := range blades {
					for _, sys := range systems {
						add(g, fmt.Sprintf("%s/%s/blades=%d", t.ID, sys.name, b), 22,
							HTConfig{Opts: sys.opts, ComputeBlades: b, ThreadsPerBlade: threads, Theta: 0.99, Mix: mix, Keys: htKeys},
							func(r HTResult) { t.Add(sys.name, float64(b), r.MOPS) })
					}
				}
			}
			return g.run()
		},
	})

	register(&Experiment{
		ID:    "fig8",
		Title: "Fig. 8: performance breakdown of SMART-HT's techniques",
		Run: func(env Env) []result.Table {
			configs := fig8Configs()
			g := newGrid(env)
			for _, mix := range htMixes() {
				t := g.table("fig8-"+mix.Name,
					fmt.Sprintf("Fig. 8 — %s: MOPS vs threads, cumulative techniques", mix.Name), "threads")
				t.YUnit = "MOPS"
				for _, thr := range threadGrid(env.Quick) {
					for _, c := range configs {
						add(g, fmt.Sprintf("%s/%s/thr=%d", t.ID, c.name, thr), 23,
							HTConfig{Opts: c.opts, ThreadsPerBlade: thr, Theta: 0.99, Mix: mix, Keys: htKeys},
							func(r HTResult) { t.Add(c.name, float64(thr), r.MOPS) })
					}
				}
			}
			return g.run()
		},
	})

	register(&Experiment{
		ID:    "fig9",
		Title: "Fig. 9: throughput vs latency, read-only hash table, 96 threads",
		Run: func(env Env) []result.Table {
			targets := []float64{2, 4, 8, 12, 16, 20, 0} // 0 = unthrottled
			if env.Quick {
				targets = []float64{4, 12, 0}
			}
			g := newGrid(env)
			for _, sys := range []struct {
				name string
				opts core.Options
			}{{"RACE", RACEBaseline()}, {"SMART-HT", core.Smart()}} {
				t := g.table("fig9-"+sys.name,
					fmt.Sprintf("Fig. 9 — %s: achieved MOPS, p50, p99 per target", sys.name), "target")
				t.XUnit = "MOPS"
				defLatencySeries(t, "MOPS")
				for _, tgt := range targets {
					label := ""
					if tgt == 0 {
						label = "max"
					}
					add(g, fmt.Sprintf("%s/target=%g", t.ID, tgt), 24,
						HTConfig{Opts: sys.opts, ThreadsPerBlade: 96, Theta: 0.99, Mix: workload.ReadOnly, Keys: htKeys, TargetMOPS: tgt},
						func(r HTResult) {
							t.AddLabeled("MOPS", tgt, label, r.MOPS)
							t.AddLabeled("p50", tgt, label, us(r.Median))
							t.AddLabeled("p99", tgt, label, us(r.P99))
						})
				}
			}
			return g.run()
		},
	})

	register(&Experiment{
		ID:           "fig14",
		Title:        "Fig. 14: conflict avoidance breakdown (100% updates, Zipf 0.99)",
		Instrumented: true,
		Run: func(env Env) []result.Table {
			noCA := core.Smart()
			noCA.Backoff, noCA.DynamicLimit, noCA.CoroThrottle = false, false, false
			bo := core.Smart()
			bo.DynamicLimit, bo.CoroThrottle = false, false
			dyn := core.Smart()
			dyn.CoroThrottle = false
			configs := []struct {
				name string
				opts core.Options
			}{
				{"w/o CA", noCA},
				{"+Backoff", bo},
				{"+DynLimit", dyn},
				{"+CoroThrot", core.Smart()},
			}
			g := newGrid(env)
			mops := g.table("fig14a", "Fig. 14a — MOPS vs threads", "threads")
			mops.YUnit = "MOPS"
			retries := g.table("fig14b", "Fig. 14b — avg retries/update vs threads", "threads")
			retries.YUnit = "retries/upd"
			dist := g.table("fig14c", "Fig. 14c — retry-count distribution at 96 threads (completed ops, %)", "retries")
			dist.YUnit, dist.Prec = "%", 1
			for _, thr := range threadGrid(env.Quick) {
				for _, c := range configs {
					cfg := HTConfig{Opts: c.opts, ThreadsPerBlade: thr, Theta: 0.99, Mix: workload.UpdateOnly, Keys: htKeys}
					// §4.3 adapts c_max and t_max from the observed retry
					// rate γ: the full stack at 96 threads records all
					// three trajectories (nil without a registry).
					if c.name == "+CoroThrot" && thr == 96 {
						cfg.Telemetry = env.Telemetry
					}
					add(g, fmt.Sprintf("fig14/%s/thr=%d", c.name, thr), 25, cfg,
						func(r HTResult) {
							mops.Add(c.name, float64(thr), r.MOPS)
							retries.Add(c.name, float64(thr), r.AvgRetries)
							if thr == 96 {
								d := r.RetryDist
								dist.AddLabeled(c.name, 0, "0", 100*d.Frac(0))
								dist.AddLabeled(c.name, 1, "1", 100*d.Frac(1))
								dist.AddLabeled(c.name, 2, "2", 100*d.Frac(2))
								dist.AddLabeled(c.name, 3, ">=3", 100*d.FracAtLeast(3))
							}
						})
				}
			}
			return g.run()
		},
	})
}
