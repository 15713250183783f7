package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/result"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Ablations probe the design choices DESIGN.md calls out, beyond the
// paper's own figures: how many doorbells are actually needed, how the
// WQE cache size moves the thrashing knee, how sensitive conflict
// avoidance is to its watermarks, and how the speculative-lookup cache
// size trades hit rate against bandwidth.

func init() {
	register(&Experiment{
		ID:       "abl-db",
		Category: "ablations",
		Title:    "Ablation: medium-latency doorbell count vs 96-thread READ throughput",
		Run: func(env Env) []result.Table {
			counts := []int{1, 2, 4, 8, 12, 24, 48, 96, 192, 512}
			if env.Quick {
				counts = []int{4, 12, 96}
			}
			t := result.NewTable("abl-db",
				"Ablation — MOPS vs doorbell registers (96 threads, per-thread QPs, batch 8)", "doorbells")
			t.YUnit, t.Prec = "MOPS", 1
			set := &sweep.Set{}
			for _, n := range counts {
				// Pin the doorbell count by cloning params: the policy
				// raises medium DBs to min(threads, MaxDoorbells).
				p := rnic.Default()
				p.MaxDoorbells = n
				p.DefaultMediumDBs = minInt(n, p.DefaultMediumDBs)
				sweep.Add(set, fmt.Sprintf("abl-db/n=%d", n), 41+env.Seed,
					MicroConfig{
						Opts: core.Baseline(core.PerThreadDoorbell), Threads: 96, Batch: 8,
						Op: rnic.OpRead, Seed: 41 + env.Seed, Params: &p,
					},
					RunMicro,
					func(r MicroResult) { t.Add("MOPS", float64(n), r.MOPS) })
			}
			env.Sweeper.Run(set)
			return collect([]*result.Table{t})
		},
	})

	register(&Experiment{
		ID:       "abl-wqe",
		Category: "ablations",
		Title:    "Ablation: WQE cache size vs throughput at 96 threads x 32 OWRs",
		Run: func(env Env) []result.Table {
			sizes := []int{256, 512, 1024, 2048, 4096, 8192}
			if env.Quick {
				sizes = []int{512, 1024, 4096}
			}
			t := result.NewTable("abl-wqe",
				"Ablation — MOPS and DMA bytes/WR vs WQE cache entries (96x32)", "entries")
			t.Def("MOPS", "", 1)
			t.Def("DMA", "B/WR", 0)
			set := &sweep.Set{}
			for _, n := range sizes {
				p := rnic.Default()
				p.WQECacheEntries = n
				sweep.Add(set, fmt.Sprintf("abl-wqe/n=%d", n), 42+env.Seed,
					MicroConfig{
						Opts: core.Baseline(core.PerThreadDoorbell), Threads: 96, Batch: 32,
						Op: rnic.OpRead, Seed: 42 + env.Seed, Params: &p,
					},
					RunMicro,
					func(r MicroResult) {
						t.Add("MOPS", float64(n), r.MOPS)
						t.Add("DMA", float64(n), r.DMABytesPerWR)
					})
			}
			env.Sweeper.Run(set)
			return collect([]*result.Table{t})
		},
	})

	register(&Experiment{
		ID:       "abl-gamma",
		Category: "ablations",
		Title:    "Ablation: conflict-avoidance watermarks under 100% skewed updates (96 threads)",
		Run: func(env Env) []result.Table {
			marks := []struct{ hi, lo float64 }{
				{0.25, 0.05}, {0.5, 0.1}, {0.75, 0.25}, {0.9, 0.5},
			}
			if env.Quick {
				marks = marks[:2]
			}
			t := result.NewTable("abl-gamma",
				"Ablation — γ_H/γ_L sensitivity (SMART-HT, update-only, Zipf 0.99)", "γ_H/γ_L")
			t.Def("MOPS", "", 2)
			t.Def("retries/upd", "", 2)
			set := &sweep.Set{}
			for _, m := range marks {
				opts := core.Smart()
				opts.GammaHigh, opts.GammaLow = m.hi, m.lo
				label := fmt.Sprintf("%.2f/%.2f", m.hi, m.lo)
				m := m
				sweep.Add(set, "abl-gamma/"+label, 43+env.Seed,
					HTConfig{
						Opts: opts, ThreadsPerBlade: 96,
						Theta: 0.99, Mix: workload.UpdateOnly, Keys: htKeys, Seed: 43 + env.Seed,
					},
					htPoint(env.Quick),
					func(r HTResult) {
						t.AddLabeled("MOPS", m.hi, label, r.MOPS)
						t.AddLabeled("retries/upd", m.hi, label, r.AvgRetries)
					})
			}
			env.Sweeper.Run(set)
			return collect([]*result.Table{t})
		},
	})

	register(&Experiment{
		ID:       "abl-t0",
		Category: "ablations",
		Title:    "Ablation: backoff unit t0 under 100% skewed updates (96 threads)",
		Run: func(env Env) []result.Table {
			units := []sim.Time{800, 1600, 3300, 6600, 13200}
			if env.Quick {
				units = []sim.Time{1600, 3300, 13200}
			}
			t := result.NewTable("abl-t0",
				"Ablation — backoff unit sensitivity (SMART-HT, update-only, Zipf 0.99)", "t0")
			t.XUnit = "ns"
			t.Def("MOPS", "", 2)
			t.Def("p50", "us", 1)
			t.Def("retries/upd", "", 2)
			set := &sweep.Set{}
			for _, t0 := range units {
				opts := core.Smart()
				opts.BackoffUnit = t0
				x := float64(t0)
				sweep.Add(set, fmt.Sprintf("abl-t0/t0=%d", t0), 44+env.Seed,
					HTConfig{
						Opts: opts, ThreadsPerBlade: 96,
						Theta: 0.99, Mix: workload.UpdateOnly, Keys: htKeys, Seed: 44 + env.Seed,
					},
					htPoint(env.Quick),
					func(r HTResult) {
						t.Add("MOPS", x, r.MOPS)
						t.Add("p50", x, us(r.Median))
						t.Add("retries/upd", x, r.AvgRetries)
					})
			}
			env.Sweeper.Run(set)
			return collect([]*result.Table{t})
		},
	})

	register(&Experiment{
		ID:       "abl-spec",
		Category: "ablations",
		Title:    "Ablation: speculative-lookup cache size (SMART-BT, read-only, 48 threads)",
		Run: func(env Env) []result.Table {
			sizes := []int{256, 1024, 4096, 16384, 65536}
			if env.Quick {
				sizes = []int{1024, 16384}
			}
			t := result.NewTable("abl-spec",
				"Ablation — spec cache entries vs MOPS and hit rate", "entries")
			t.Def("MOPS", "", 2)
			t.Def("hit rate", "", 2)
			set := &sweep.Set{}
			for _, n := range sizes {
				n := n
				sweep.Add(set, fmt.Sprintf("abl-spec/n=%d", n), 45+env.Seed,
					BTConfig{
						Variant: SmartBT, ThreadsPerBlade: 48,
						Theta: 0.99, Mix: workload.ReadOnly, Keys: htKeys, Seed: 45 + env.Seed,
						SpecCacheEntries: n,
					},
					btPoint(env.Quick),
					func(r BTResult) {
						t.Add("MOPS", float64(n), r.MOPS)
						t.Add("hit rate", float64(n), r.SpecHit)
					})
			}
			env.Sweeper.Run(set)
			return collect([]*result.Table{t})
		},
	})
}

func init() {
	register(&Experiment{
		ID:       "abl-payload",
		Category: "ablations",
		Title:    "Ablation: payload size — the IOPS-bound to bandwidth-bound transition (§3.1)",
		Run: func(env Env) []result.Table {
			sizes := []int{8, 16, 32, 64, 128, 256, 512, 1024}
			if env.Quick {
				sizes = []int{8, 64, 512}
			}
			t := result.NewTable("abl-payload",
				"Ablation — READ MOPS and Gbps vs payload (96 threads, per-thread doorbell, batch 8)", "payload")
			t.XUnit = "B"
			t.Def("MOPS", "", 1)
			t.Def("Gbps", "", 1)
			set := &sweep.Set{}
			for _, n := range sizes {
				n := n
				sweep.Add(set, fmt.Sprintf("abl-payload/n=%d", n), 46+env.Seed,
					MicroConfig{
						Opts: core.Baseline(core.PerThreadDoorbell), Threads: 96, Batch: 8,
						Op: rnic.OpRead, Payload: n, Seed: 46 + env.Seed,
					},
					RunMicro,
					func(r MicroResult) {
						t.Add("MOPS", float64(n), r.MOPS)
						t.Add("Gbps", float64(n), r.MOPS*float64(n)*8/1e3)
					})
			}
			env.Sweeper.Run(set)
			return collect([]*result.Table{t})
		},
	})
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
