package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/result"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func init() {
	register(&Experiment{
		ID:           "fig3",
		Title:        "Fig. 3: throughput of 8-byte READ/WRITE under different QP allocation policies (depth 8)",
		Instrumented: true,
		Run:          runFig3,
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
		Run: func(env Env) []result.Table {
			batches := []int{1, 2, 4, 8, 16, 32, 64}
			if env.Quick {
				batches = []int{4, 16, 64}
			}
			throttled := core.Baseline(core.PerThreadDoorbell)
			throttled.WorkReqThrottle = true
			throttled.UpdateDelta = 400 * sim.Microsecond
			profiles := []microProfile{
				{"per-thread-qp", core.Baseline(core.PerThreadQP)},
				{"per-thread-context", core.Baseline(core.PerThreadContext)},
				{"+ThdResAlloc", core.Baseline(core.PerThreadDoorbell)},
				{"+WorkReqThrot", throttled},
			}
			panels := []microPanel{
				{id: "fig13a", title: "Fig. 13a — 8-byte READ MOPS vs threads (batch 16)",
					op: rnic.OpRead, x: "threads", grid: threadGrid(env.Quick), fixed: 16, seed: 13},
				{id: "fig13b", title: "Fig. 13b — 8-byte READ MOPS vs work request batch size (96 threads)",
					op: rnic.OpRead, x: "batch", grid: batches, fixed: 96, seed: 13},
			}
			// §4.2's Algorithm 1 is a feedback controller: the throttled
			// profile at the top thread count records its epoch-by-epoch
			// C_max trajectory, which the throughput table cannot show.
			probes := map[string]*telemetry.Registry{"fig13a/+WorkReqThrot/thr=96": env.Telemetry}
			return runMicroPanels(env, profiles, panels, probes)
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

// microProfile is one series of a micro panel grid: a named runtime
// configuration.
type microProfile struct {
	name string
	opts core.Options
}

// microPanel is one table of a micro panel grid: MOPS of op along the
// swept axis x ("threads" or "batch"), whose values are grid, with the
// other axis held at fixed.
type microPanel struct {
	id, title string
	op        rnic.OpKind
	x         string
	grid      []int
	fixed     int
	seed      int64
}

// runMicroPanels runs fig3's and fig13's shape of sweep: every panel
// crosses its grid with the profiles, one table per panel, and all
// panels' points run in one sweep. A point whose label probes names
// harvests into that registry.
func runMicroPanels(env Env, profiles []microProfile, panels []microPanel, probes map[string]*telemetry.Registry) []result.Table {
	g := newGrid(env)
	for _, p := range panels {
		t := g.table(p.id, p.title, p.x)
		t.YUnit, t.Prec = "MOPS", 1
		xShort := "thr"
		if p.x == "batch" {
			xShort = "batch"
		}
		for _, v := range p.grid {
			threads, batch := v, p.fixed
			if p.x == "batch" {
				threads, batch = p.fixed, v
			}
			for _, prof := range profiles {
				label := fmt.Sprintf("%s/%s/%s=%d", p.id, prof.name, xShort, v)
				opts := prof.opts
				opts.Telemetry = probes[label]
				add(g, label, p.seed,
					MicroConfig{Opts: opts, Threads: threads, Batch: batch, Op: p.op},
					func(r MicroResult) { t.Add(prof.name, float64(v), r.MOPS) })
			}
		}
	}
	return g.run()
}

// runFig3 runs the §3.1 QP-allocation comparison. With a registry it
// also measures what §3.1 blames the per-thread-QP collapse on: the
// contended fraction of doorbell spinlock acquisitions. Every fig3-read
// per-thread-qp and per-thread-doorbell point harvests into its own
// probe, except the heaviest contended one (per-thread-qp at the top of
// the grid), which harvests into the registry itself as the
// representative run whose full counter set and trace the registry
// exports. The two groups are registered first, so they export first,
// and recorded from the probes after the sweep, in enumeration order.
func runFig3(env Env) []result.Table {
	threads := threadGrid(env.Quick)
	profiles := []microProfile{
		{"shared-qp", core.Baseline(core.SharedQP)},
		{"multiplexed-qp(q=4)", core.Baseline(core.MultiplexedQP)},
		{"per-thread-qp", core.Baseline(core.PerThreadQP)},
		{"per-thread-doorbell", core.Baseline(core.PerThreadDoorbell)},
	}
	panels := []microPanel{
		{id: "fig3-read", title: "Fig. 3 — 8-byte READ, MOPS vs threads",
			op: rnic.OpRead, x: "threads", grid: threads, fixed: 8, seed: 11},
		{id: "fig3-write", title: "Fig. 3 — 8-byte WRITE, MOPS vs threads",
			op: rnic.OpWrite, x: "threads", grid: threads, fixed: 8, seed: 11},
	}
	reg := env.Telemetry
	if reg == nil {
		return runMicroPanels(env, profiles, panels, nil)
	}
	cg := reg.Group("db-contention",
		"Contended fraction of doorbell spinlock acquisitions (§3.1)", "threads")
	cg.Prec = 3
	raw := reg.Group("db-contended",
		"Contended doorbell acquisitions (raw count)", "threads")
	policies := []string{"per-thread-qp", "per-thread-doorbell"}
	label := func(policy string, thr int) string { return fmt.Sprintf("fig3-read/%s/thr=%d", policy, thr) }
	probes := map[string]*telemetry.Registry{}
	for _, thr := range threads {
		for _, p := range policies {
			probes[label(p, thr)] = telemetry.New()
		}
	}
	probes[label("per-thread-qp", threads[len(threads)-1])] = reg
	tables := runMicroPanels(env, profiles, panels, probes)
	for _, thr := range threads {
		for _, p := range policies {
			probe := probes[label(p, thr)]
			acq, cont := probe.Value("db/acquisitions-total"), probe.Value("db/contended-total")
			frac := 0.0
			if acq > 0 {
				frac = float64(cont) / float64(acq)
			}
			cg.Add(p, float64(thr), frac) // the table's precision, 3
			raw.Def(p, "", 0)
			raw.Add(p, float64(thr), float64(cont))
		}
	}
	return tables
}
