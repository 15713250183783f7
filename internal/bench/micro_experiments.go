package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/result"
	"repro/internal/rnic"
	"repro/internal/sim"
)

func init() {
	register(&Experiment{
		ID:           "fig3",
		Title:        "Fig. 3: throughput of 8-byte READ/WRITE under different QP allocation policies (depth 8)",
		Instrumented: true,
		Spec:         fig3Spec,
		Run: func(env Env) []result.Table {
			if env.Telemetry != nil {
				return fig3Telemetry(env)
			}
			return runSpec(fig3Spec, env)
		},
	})

	register(&Experiment{
		ID:    "fig4",
		Title: "Fig. 4: throughput and DRAM traffic vs thread count x outstanding work requests",
		Run: func(env Env) []result.Table {
			threads := []int{16, 36, 64, 96}
			owrs := []int{1, 2, 4, 8, 16, 32, 64}
			if env.Quick {
				threads = []int{36, 96}
				owrs = []int{2, 8, 32}
			}
			g := newGrid(env)
			mops := g.table("fig4a", "Fig. 4a — READ MOPS (rows: threads, cols: OWRs/thread)", "threads")
			mops.YUnit, mops.Prec = "MOPS", 1
			dma := g.table("fig4b", "Fig. 4b — DRAM bytes per work request", "threads")
			dma.YUnit, dma.Prec = "B/WR", 0
			for _, t := range threads {
				for _, o := range owrs {
					col := fmt.Sprintf("owr=%d", o)
					add(g, fmt.Sprintf("thr=%d/%s", t, col), 12,
						MicroConfig{Opts: core.Baseline(core.PerThreadDoorbell), Threads: t, Batch: o, Op: rnic.OpRead},
						func(r MicroResult) {
							mops.Add(col, float64(t), r.MOPS)
							dma.Add(col, float64(t), r.DMABytesPerWR)
						})
				}
			}
			return g.run()
		},
	})

	register(&Experiment{
		ID:           "fig13",
		Title:        "Fig. 13: SMART's allocation and throttling techniques in the micro-benchmark",
		Instrumented: true,
		Spec:         fig13Spec,
		Run: func(env Env) []result.Table {
			if env.Telemetry != nil {
				return fig13Telemetry(env)
			}
			return runSpec(fig13Spec, env)
		},
	})

	register(&Experiment{
		ID:    "tab1",
		Title: "Table 1: 8-byte READ MOPS under dynamically changing thread counts (batch 64)",
		Run: func(env Env) []result.Table {
			// Time-scale substitution: the paper's epoch is 512 ms
			// against changing intervals of 32–2048 ms; we scale both
			// by 1/16 (epoch ≈ 16 ms within reach of simulation) and
			// keep the interval/epoch ratios 1/16 … 4.
			intervals := []sim.Time{
				2 * sim.Millisecond, 4 * sim.Millisecond, 8 * sim.Millisecond,
				16 * sim.Millisecond, 32 * sim.Millisecond,
				64 * sim.Millisecond, 128 * sim.Millisecond,
			}
			paperMS := []int{32, 64, 128, 256, 512, 1024, 2048}
			if env.Quick {
				intervals = []sim.Time{4 * sim.Millisecond, 16 * sim.Millisecond}
				paperMS = []int{64, 256}
			}
			throttled := core.Baseline(core.PerThreadDoorbell)
			throttled.WorkReqThrottle = true
			throttled.UpdateDelta = 250 * sim.Microsecond // epoch ≈ 16.25 ms
			plain := core.Baseline(core.PerThreadDoorbell)

			g := newGrid(env)
			t := g.table("tab1", "Table 1 — MOPS vs changing interval (paper-equivalent ms)", "interval")
			t.XUnit, t.YUnit, t.Prec = "paper ms", "MOPS", 1
			for _, row := range []struct {
				name string
				opts core.Options
			}{
				{"w/o WorkReqThrot", plain},
				{"w/  WorkReqThrot", throttled},
			} {
				for i, iv := range intervals {
					measure := 8 * iv
					if env.Quick {
						measure = 4 * iv
					}
					if measure < 16*sim.Millisecond {
						measure = 16 * sim.Millisecond
					}
					add(g, fmt.Sprintf("%s/interval=%dms", strings.TrimSpace(row.name), paperMS[i]), 14,
						MicroConfig{
							Opts: row.opts, Threads: 96, Batch: 64, Op: rnic.OpRead,
							Measure: measure, Warmup: 2 * sim.Millisecond,
							DynamicInterval: iv, DynamicMin: 36,
						},
						func(r MicroResult) { t.Add(row.name, float64(paperMS[i]), r.MOPS) })
				}
			}
			return g.run()
		},
	})
}
