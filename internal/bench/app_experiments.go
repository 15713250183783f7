package bench

import (
	"fmt"

	"repro/internal/result"
)

func init() {
	register(&Experiment{
		ID:    "fig10",
		Title: "Fig. 10: distributed transaction throughput, FORD+ vs SMART-DTX",
		Run: func(env Env) []result.Table {
			systems := []struct {
				name     string
				fordPlus bool
			}{{"FORD+", true}, {"SMART-DTX", false}}
			g := newGrid(env)
			for _, wl := range []DTXWorkload{SmallBank, TATP} {
				t := g.table(fmt.Sprintf("fig10-%s", wl),
					fmt.Sprintf("Fig. 10 — %s: MTPS vs threads", wl), "threads")
				t.YUnit = "MTPS"
				for _, thr := range threadGrid(env.Quick) {
					for _, sys := range systems {
						add(g, fmt.Sprintf("%s/%s/thr=%d", t.ID, sys.name, thr), 31,
							DTXConfig{Workload: wl, FORDPlus: sys.fordPlus, Threads: thr},
							func(r DTXResult) { t.Add(sys.name, float64(thr), r.MTPS) })
					}
				}
			}
			return g.run()
		},
	})

	register(&Experiment{
		ID:    "fig11",
		Title: "Fig. 11: throughput vs latency for distributed transactions (96x8 tasks)",
		Run: func(env Env) []result.Table {
			targets := map[DTXWorkload][]float64{
				SmallBank: {0.5, 1, 2, 4, 8, 0},
				TATP:      {1, 2, 4, 8, 16, 0},
			}
			if env.Quick {
				targets = map[DTXWorkload][]float64{
					SmallBank: {1, 0},
					TATP:      {4, 0},
				}
			}
			g := newGrid(env)
			for _, wl := range []DTXWorkload{SmallBank, TATP} {
				for _, sys := range []struct {
					name     string
					fordPlus bool
				}{{"FORD+", true}, {"SMART-DTX", false}} {
					t := g.table(fmt.Sprintf("fig11-%s-%s", wl, sys.name),
						fmt.Sprintf("Fig. 11 — %s, %s: achieved MTPS, p50, p99", wl, sys.name), "target")
					t.XUnit = "MTPS"
					defLatencySeries(t, "MTPS")
					for _, tgt := range targets[wl] {
						label := ""
						if tgt == 0 {
							label = "max"
						}
						add(g, fmt.Sprintf("%s/target=%g", t.ID, tgt), 32,
							DTXConfig{Workload: wl, FORDPlus: sys.fordPlus, Threads: 96, TargetMTPS: tgt},
							func(r DTXResult) {
								t.AddLabeled("MTPS", tgt, label, r.MTPS)
								t.AddLabeled("p50", tgt, label, us(r.Median))
								t.AddLabeled("p99", tgt, label, us(r.P99))
							})
					}
				}
			}
			return g.run()
		},
	})

	register(&Experiment{
		ID:    "fig12",
		Title: "Fig. 12: B+Tree throughput, Sherman+ vs Sherman+ w/SL vs SMART-BT",
		Run: func(env Env) []result.Table {
			variants := []BTVariant{ShermanPlus, ShermanPlusSL, SmartBT}
			threads := []int{8, 16, 32, 48, 64, 94}
			if env.Quick {
				threads = []int{8, 48, 94}
			}
			g := newGrid(env)
			for _, mix := range htMixes() {
				t := g.table("fig12-scaleup-"+mix.Name,
					fmt.Sprintf("Fig. 12(a-c) — %s, 1 server: MOPS vs threads", mix.Name), "threads")
				t.YUnit = "MOPS"
				for _, thr := range threads {
					for _, v := range variants {
						add(g, fmt.Sprintf("%s/%s/thr=%d", t.ID, v, thr), 33,
							BTConfig{Variant: v, ThreadsPerBlade: thr, Theta: 0.99, Mix: mix, Keys: htKeys},
							func(r BTResult) { t.Add(v.String(), float64(thr), r.MOPS) })
					}
				}
			}
			servers := []int{1, 2, 4, 6, 8}
			perServer := 94
			if env.Quick {
				servers = []int{1, 4}
				perServer = 32
			}
			for _, mix := range htMixes() {
				t := g.table("fig12-scaleout-"+mix.Name,
					fmt.Sprintf("Fig. 12(d-f) — %s, %d threads/server: MOPS vs servers", mix.Name, perServer), "servers")
				t.YUnit = "MOPS"
				for _, s := range servers {
					for _, v := range variants {
						add(g, fmt.Sprintf("%s/%s/servers=%d", t.ID, v, s), 33,
							BTConfig{Variant: v, Servers: s, ThreadsPerBlade: perServer, Theta: 0.99, Mix: mix, Keys: htKeys},
							func(r BTResult) { t.Add(v.String(), float64(s), r.MOPS) })
					}
				}
			}
			return g.run()
		},
	})
}
