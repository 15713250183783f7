package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/result"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// This file holds the instrumented (software Neo-Host) variants of
// the figures whose paper argument rests on internal signals the
// end-to-end sweeps cannot show — the env.Telemetry != nil branch of
// each figure's Run (chaos and serving carry their registry through
// their one runner instead):
//
//   - fig3: §3.1 blames the per-thread-QP collapse on doorbell
//     spinlock contention. The instrumented sweep measures the
//     contended fraction of doorbell acquisitions per policy.
//   - fig13: §4.2's Algorithm 1 is a feedback controller; the
//     instrumented run records the epoch-by-epoch C_max trajectory.
//   - fig14: §4.3 adapts c_max and t_max from the observed retry rate
//     γ; the instrumented run records all three trajectories.
//
// The variants are deterministic end to end: the same Env produces
// byte-identical telemetry documents at any worker count — every
// sweep point harvests into its own registry (per-point isolation),
// and the shared groups are recorded only inside merges.

// fig3Telemetry sweeps the two per-thread policies over the thread
// grid and reports the contended fraction of doorbell acquisitions.
func fig3Telemetry(env Env) []result.Table {
	reg := env.Telemetry
	grid := threadGrid(env.Quick)
	cg := reg.Group("db-contention",
		"Contended fraction of doorbell spinlock acquisitions (§3.1)", "threads")
	cg.Prec = 3
	raw := reg.Group("db-contended",
		"Contended doorbell acquisitions (raw count)", "threads")
	policies := []struct {
		name string
		opts core.Options
	}{
		{"per-thread-qp", core.Baseline(core.PerThreadQP)},
		{"per-thread-doorbell", core.Baseline(core.PerThreadDoorbell)},
	}
	last := grid[len(grid)-1]
	set := &sweep.Set{}
	for _, thr := range grid {
		for _, p := range policies {
			// Each sweep point harvests into a throwaway probe; the
			// heaviest contended point (per-thread-qp at the top of
			// the grid) doubles as the representative run whose full
			// counter set and trace land in the returned registry.
			// Only that one point writes reg during exec, so probes
			// keep concurrent points isolated; the shared cg/raw
			// groups are recorded in the merge, on the caller's
			// goroutine, in enumeration order.
			probe := telemetry.New()
			if thr == last && p.opts.Policy == core.PerThreadQP {
				probe = reg
			}
			sweep.Add(set, fmt.Sprintf("fig3-telemetry/%s/thr=%d", p.name, thr), 11+env.Seed,
				MicroConfig{
					Opts: p.opts, Threads: thr, Batch: 8, Op: rnic.OpRead,
					Seed: 11 + env.Seed, Telemetry: probe,
				},
				RunMicro,
				func(MicroResult) {
					acq := probe.Value("db/acquisitions-total")
					cont := probe.Value("db/contended-total")
					frac := 0.0
					if acq > 0 {
						frac = float64(cont) / float64(acq)
					}
					cg.SeriesDef(p.name, "", 3).Record(float64(thr), frac)
					raw.Series(p.name).Record(float64(thr), float64(cont))
				})
		}
	}
	env.Sweeper.Run(set)
	return reg.Tables("")
}

// fig13Telemetry is one representative throttled run at the top thread
// count: the point of the instrumented variant is Algorithm 1's C_max
// trajectory, which the throughput table cannot show.
func fig13Telemetry(env Env) []result.Table {
	throttled := core.Baseline(core.PerThreadDoorbell)
	throttled.WorkReqThrottle = true
	throttled.UpdateDelta = 400 * sim.Microsecond
	set := &sweep.Set{}
	sweep.Add(set, "fig13-telemetry/thr=96", 13+env.Seed,
		MicroConfig{
			Opts: throttled, Threads: 96, Batch: 16, Op: rnic.OpRead,
			Seed: 13 + env.Seed, Telemetry: env.Telemetry,
		},
		RunMicro, nil)
	env.Sweeper.Run(set)
	return env.Telemetry.Tables("")
}

// fig14Telemetry is the full conflict-avoidance stack under the
// contended update-only workload: it records γ samples and the
// c_max/t_max responses.
func fig14Telemetry(env Env) []result.Table {
	set := &sweep.Set{}
	sweep.Add(set, "fig14-telemetry/thr=96", 25+env.Seed,
		HTConfig{
			Opts: core.Smart(), ThreadsPerBlade: 96,
			Theta: 0.99, Mix: workload.UpdateOnly, Keys: htKeys,
			Seed: 25 + env.Seed, Telemetry: env.Telemetry,
		},
		htPoint(env.Quick),
		nil)
	env.Sweeper.Run(set)
	return env.Telemetry.Tables("")
}
