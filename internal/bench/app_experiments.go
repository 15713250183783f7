package bench

import (
	"fmt"

	"repro/internal/result"
	"repro/internal/sweep"
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
			set := &sweep.Set{}
			var tabs []*result.Table
			for _, wl := range []DTXWorkload{SmallBank, TATP} {
				t := result.NewTable(fmt.Sprintf("fig10-%s", wl),
					fmt.Sprintf("Fig. 10 — %s: MTPS vs threads", wl), "threads")
				t.YUnit = "MTPS"
				tabs = append(tabs, t)
				for _, thr := range threadGrid(env.Quick) {
					for _, sys := range systems {
						sweep.Add(set, fmt.Sprintf("%s/%s/thr=%d", t.ID, sys.name, thr), 31+env.Seed,
							DTXConfig{Workload: wl, FORDPlus: sys.fordPlus, Threads: thr, Seed: 31 + env.Seed},
							dtxPoint(env.Quick),
							func(r DTXResult) { t.Add(sys.name, float64(thr), r.MTPS) })
					}
				}
			}
			env.Sweeper.Run(set)
			return collect(tabs)
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
			set := &sweep.Set{}
			var tabs []*result.Table
			for _, wl := range []DTXWorkload{SmallBank, TATP} {
				for _, sys := range []struct {
					name     string
					fordPlus bool
				}{{"FORD+", true}, {"SMART-DTX", false}} {
					t := result.NewTable(fmt.Sprintf("fig11-%s-%s", wl, sys.name),
						fmt.Sprintf("Fig. 11 — %s, %s: achieved MTPS, p50, p99", wl, sys.name), "target")
					t.XUnit = "MTPS"
					defLatencySeries(t, "MTPS")
					tabs = append(tabs, t)
					for _, tgt := range targets[wl] {
						label := ""
						if tgt == 0 {
							label = "max"
						}
						tgt := tgt
						sweep.Add(set, fmt.Sprintf("%s/target=%g", t.ID, tgt), 32+env.Seed,
							DTXConfig{Workload: wl, FORDPlus: sys.fordPlus,
								Threads: 96, Seed: 32 + env.Seed, TargetMTPS: tgt},
							dtxPoint(env.Quick),
							func(r DTXResult) {
								t.AddLabeled("MTPS", tgt, label, r.MTPS)
								t.AddLabeled("p50", tgt, label, us(r.Median))
								t.AddLabeled("p99", tgt, label, us(r.P99))
							})
					}
				}
			}
			env.Sweeper.Run(set)
			return collect(tabs)
		},
	})

	register(&Experiment{
		ID:    "fig12",
		Title: "Fig. 12: B+Tree throughput, Sherman+ vs Sherman+ w/SL vs SMART-BT",
		Run: func(env Env) []result.Table {
			variants := []BTVariant{ShermanPlus, ShermanPlusSL, SmartBT}
			grid := []int{8, 16, 32, 48, 64, 94}
			if env.Quick {
				grid = []int{8, 48, 94}
			}
			set := &sweep.Set{}
			var tabs []*result.Table
			for _, mix := range htMixes() {
				t := result.NewTable("fig12-scaleup-"+mix.Name,
					fmt.Sprintf("Fig. 12(a-c) — %s, 1 server: MOPS vs threads", mix.Name), "threads")
				t.YUnit = "MOPS"
				tabs = append(tabs, t)
				for _, thr := range grid {
					for _, v := range variants {
						sweep.Add(set, fmt.Sprintf("%s/%s/thr=%d", t.ID, v, thr), 33+env.Seed,
							BTConfig{Variant: v, ThreadsPerBlade: thr,
								Theta: 0.99, Mix: mix, Keys: htKeys, Seed: 33 + env.Seed},
							btPoint(env.Quick),
							func(r BTResult) { t.Add(v.String(), float64(thr), r.MOPS) })
					}
				}
			}
			servers := []int{1, 2, 4, 6, 8}
			threads := 94
			if env.Quick {
				servers = []int{1, 4}
				threads = 32
			}
			for _, mix := range htMixes() {
				t := result.NewTable("fig12-scaleout-"+mix.Name,
					fmt.Sprintf("Fig. 12(d-f) — %s, %d threads/server: MOPS vs servers", mix.Name, threads), "servers")
				t.YUnit = "MOPS"
				tabs = append(tabs, t)
				for _, s := range servers {
					for _, v := range variants {
						sweep.Add(set, fmt.Sprintf("%s/%s/servers=%d", t.ID, v, s), 33+env.Seed,
							BTConfig{Variant: v, Servers: s, ThreadsPerBlade: threads,
								Theta: 0.99, Mix: mix, Keys: htKeys, Seed: 33 + env.Seed},
							btPoint(env.Quick),
							func(r BTResult) { t.Add(v.String(), float64(s), r.MOPS) })
					}
				}
			}
			env.Sweeper.Run(set)
			return collect(tabs)
		},
	})
}
