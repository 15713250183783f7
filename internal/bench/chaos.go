package bench

import (
	"encoding/binary"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/result"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The chaos experiment family runs fig3/fig13-style workloads under a
// deterministic fault plan and measures recovery: throughput must dip
// while the fault window is open and re-converge to the fault-free
// baseline after it closes, and the §4.3 γ controller must visibly
// widen t_max under an injected CAS-conflict storm. Two runs share one
// registry:
//
//   - a READ micro-benchmark (per-thread doorbell, watchdog + retries
//     on) with the plan installed, next to an identically seeded
//     fault-free twin — the source of the chaos-recovery and
//     chaos-throughput tables;
//   - a CAS storm (prefix "storm/") where the plan NAKs most atomics
//     for the whole window and retries are off, so every injected
//     failure surfaces to BackoffCASSync as a conflict and drives γ.

// chaosSample is the counter-sampling period of the recovery
// trajectories.
const chaosSample = 250 * sim.Microsecond

type chaosSamplePoint struct {
	t         sim.Time
	completed uint64
}

// completedAt returns the last sample at or before t.
func completedAt(samples []chaosSamplePoint, t sim.Time) (sim.Time, uint64) {
	var bt sim.Time
	var bc uint64
	for _, s := range samples {
		if s.t > t {
			break
		}
		bt, bc = s.t, s.completed
	}
	return bt, bc
}

// phaseRate returns MOPS (completed WRs per microsecond) over
// [from, to], measured between the nearest sample boundaries.
func phaseRate(samples []chaosSamplePoint, from, to sim.Time) float64 {
	t0, c0 := completedAt(samples, from)
	t1, c1 := completedAt(samples, to)
	if t1 <= t0 {
		return 0
	}
	return float64(c1-c0) / (float64(t1-t0) / 1e3)
}

// chaosSeed is the family's built-in seed: both points run at
// chaosSeed + env.Seed, and the storm's own seeds offset env.Seed.
const chaosSeed = 41

// chaosPoint is one of the family's two points: the READ
// micro-benchmark over [0, horizon], faulted by plan and harvested
// into reg when they are set; the faulted point then runs the CAS
// storm into the same registry.
type chaosPoint struct {
	warmup, horizon sim.Time
	plan            *fault.Plan
	reg             *telemetry.Registry
}

// run returns the point's completed-WR samples, one per chaosSample.
func (c chaosPoint) run(seed int64, quick bool) []chaosSamplePoint {
	threads := 48
	if quick {
		threads = 24
	}
	var samples []chaosSamplePoint
	opts := core.Baseline(core.PerThreadDoorbell)
	opts.WRTimeout = 300 * sim.Microsecond
	opts.MaxWRRetries = 3
	opts.Telemetry = c.reg
	cfg := MicroConfig{
		Opts: opts, Threads: threads, Batch: 8, Op: rnic.OpRead,
		Warmup: c.warmup, Measure: c.horizon - c.warmup,
		SampleEvery: chaosSample,
		OnSample: func(now sim.Time, snap rnic.Counters) {
			samples = append(samples, chaosSamplePoint{now, snap.Completed})
		},
	}
	if c.plan != nil {
		// Assigned only when set: a typed nil in the interface would
		// defeat RunMicro's Faults==nil fast path.
		cfg.Faults = c.plan
	}
	cfg.run(seed, quick)
	if c.plan != nil {
		runStorm(quick, seed-chaosSeed, c.reg, c.plan, c.horizon)
	}
	return samples
}

// runChaos executes the family: the faulted READ run, its fault-free
// twin, and the CAS storm, returning the derived tables followed by
// the registry's export (counters incl. fault/*, storm trajectories).
// env.Faults is the injected plan (-faults); nil means fault.Default(),
// which the shape checks are calibrated against — custom plans run
// fine but may legitimately fail -check. Plans are stateless (Decide
// draws from the caller's rng), so concurrent points may share one
// safely. env.Telemetry, when non-nil, is the registry the faulted run
// and the storm harvest into (the caller keeps it for the trace ring);
// nil gets a private one, since the export is part of the tables
// either way.
//
// The family enumerates as two sweep points: the faulted run and the
// storm share reg, so they stay in one point (execs within a point run
// sequentially, preserving the registry's write order); the fault-free
// twin touches no shared state and runs concurrently with them. Each
// point returns its samples, and the merges hand them to the tables.
func runChaos(env Env) []result.Table {
	plan, reg := env.Faults, env.Telemetry
	if plan == nil {
		plan = fault.Default()
	}
	if reg == nil {
		reg = telemetry.New()
	}
	wStart, wEnd := plan.Envelope()
	warmup := sim.Millisecond
	horizon := wEnd + 3*sim.Millisecond
	if horizon < warmup+2*sim.Millisecond {
		horizon = warmup + 2*sim.Millisecond
	}

	var faulted, clean []chaosSamplePoint
	g := newGrid(env)
	add(g, "chaos/faulted+storm", chaosSeed,
		chaosPoint{warmup: warmup, horizon: horizon, plan: plan, reg: reg},
		func(s []chaosSamplePoint) { faulted = s })
	add(g, "chaos/fault-free", chaosSeed,
		chaosPoint{warmup: warmup, horizon: horizon},
		func(s []chaosSamplePoint) { clean = s })
	g.run()

	traj := result.NewTable("chaos-throughput",
		"READ throughput trajectory through the fault window", "time")
	traj.XUnit, traj.YUnit = "us", "MOPS"
	traj.Def("faulted", "", 2)
	traj.Def("fault-free", "", 2)
	addRates := func(name string, samples []chaosSamplePoint) {
		for i := 1; i < len(samples); i++ {
			dt := float64(samples[i].t-samples[i-1].t) / 1e3
			if dt <= 0 {
				continue
			}
			traj.Add(name, float64(samples[i].t)/1e3,
				float64(samples[i].completed-samples[i-1].completed)/dt)
		}
	}
	addRates("faulted", faulted)
	addRates("fault-free", clean)

	rec := result.NewTable("chaos-recovery",
		"Phase throughput around the fault window", "phase")
	rec.YUnit = "MOPS"
	rec.Def("faulted", "", 2)
	rec.Def("fault-free", "", 2)
	phases := []struct {
		label    string
		from, to sim.Time
	}{
		{"baseline", warmup, wStart},
		{"during", wStart, wEnd},
		// Recovery is judged half a millisecond after the window closes
		// so straggling watchdog expiries don't blur the verdict.
		{"after", wEnd + 500*sim.Microsecond, horizon},
	}
	for i, ph := range phases {
		rec.AddLabeled("faulted", float64(i), ph.label, phaseRate(faulted, ph.from, ph.to))
		rec.AddLabeled("fault-free", float64(i), ph.label, phaseRate(clean, ph.from, ph.to))
	}

	tables := []result.Table{*rec, *traj}
	return append(tables, reg.Tables("")...)
}

// stormHotSlots sizes the storm's contended region: wide enough that
// organic CAS conflicts stay rare before the window opens, so the γ
// spike (and the t_max response) is attributable to the injected NAKs.
const stormHotSlots = 128

// runStorm drives the CAS-conflict storm: threads increment hot
// counters through BackoffCASSync with the full backoff stack but no
// transparent WR retries, so every injected atomic NAK registers as a
// failed CAS and feeds the §4.3 retry rate γ. Telemetry (γ samples,
// the t_max trajectory, fault counters) lands in reg under "storm/".
func runStorm(quick bool, seed int64, reg *telemetry.Registry, plan *fault.Plan, horizon sim.Time) {
	threads := 16
	if quick {
		threads = 8
	}
	runApp(app{
		name: "storm",
		cluster: cluster.Config{
			ComputeBlades: 1,
			MemoryBlades:  1,
			BladeCapacity: 1 << 16,
			Seed:          97 + seed,
		},
		threads: threads,
		coros:   1,
		opts: core.Options{
			Policy:       core.PerThreadDoorbell,
			Backoff:      true,
			DynamicLimit: true,
			RetryWindow:  200 * sim.Microsecond,
			// The watchdog covers the reads (the plan blackholes READs late
			// in its window); MaxWRRetries stays 0 so a NAKed CAS is never
			// reposted by Sync — it surfaces to BackoffCASSync as an
			// unsuccessful attempt and feeds γ.
			WRTimeout:       100 * sim.Microsecond,
			Telemetry:       reg,
			TelemetryPrefix: "storm/",
		},
		// The storm reports lifetime trajectories, not a window, so only
		// the sum of the two matters.
		warmup:  horizon / 2,
		measure: horizon - horizon/2,
		faults:  plan,
		load: func(cl *cluster.Cluster) newBladeFunc {
			region := cl.Memories[0].Mem.Alloc(8 * stormHotSlots)
			return func(int, *core.Runtime) newCoroFunc {
				return func(ti, _ int) opFunc {
					rng := rand.New(rand.NewSource(seed + int64(ti)*727 + 5))
					buf := make([]byte, 8)
					return func(c *core.Ctx, _ sim.Time) int {
						addr := region.Add(uint64(rng.Intn(stormHotSlots)) * 8)
						c.BeginOp()
						// Learn the counter's current value first, so an
						// unperturbed CAS almost always swaps on the first try
						// and the pre-window retry rate stays low.
						c.ReadSync(addr, buf)
						expect := binary.LittleEndian.Uint64(buf)
						for c.Now() < horizon {
							old, swapped := c.BackoffCASSync(addr, expect, expect+1)
							if swapped {
								break
							}
							// An abandoned (injected) failure reports Result 0;
							// the next organic attempt relearns the real value.
							expect = old
						}
						c.EndOp()
						return noCount
					}
				}
			}
		},
	})
}

func init() {
	register(&Experiment{
		ID:           "chaos",
		Category:     "chaos",
		Title:        "Recovery under injected RNIC faults (fault window + CAS storm)",
		Instrumented: true,
		Run:          runChaos,
	})
}
