package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/race"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// HTConfig drives the hash-table experiments (§6.2.1 and §6.3). One
// run measures one point: a hash table pre-loaded with Keys items,
// ComputeBlades compute blades each running ThreadsPerBlade threads ×
// Depth coroutines of the given YCSB mix.
type HTConfig struct {
	Opts            core.Options
	ComputeBlades   int
	ThreadsPerBlade int
	MemoryBlades    int // default 2 (as in §6.2.1)
	Keys            uint64
	Theta           float64
	Mix             workload.Mix
	Warmup          sim.Time
	Measure         sim.Time
	Seed            int64

	// TargetMOPS, when positive, throttles execution to approximately
	// this aggregate operation rate (the Fig. 9 latency-throughput
	// sweep). Each task spaces its operations to hit the target.
	TargetMOPS float64
}

// HTResult is one measured point of a hash-table run.
type HTResult struct {
	MOPS   float64 // completed index operations per microsecond
	Median sim.Time
	P99    sim.Time
	// AvgRetries is total unsuccessful CAS attempts during the window
	// divided by the updates completed in it (RetryDist.Total()) — the
	// unbiased Fig. 14b metric (per-completed-op averages hide
	// operations still stuck retrying when the window closes).
	AvgRetries float64
	// RetryDist is the per-operation retry-count distribution over
	// operations that completed inside the window (Fig. 14c).
	RetryDist *stats.CountDist
	Ops       uint64
	VerbMOPS  float64 // completed verbs per microsecond (wasted-IOPS view)

	// Fingerprint is the run's event fingerprint, sim.Engine.Fingerprint
	// at the horizon: equal for two runs that executed the same events.
	Fingerprint uint64
}

func (r HTResult) String() string {
	return fmt.Sprintf("%.2f MOPS  p50=%v p99=%v  retries/upd=%.2f",
		r.MOPS, r.Median, r.P99, r.AvgRetries)
}

// RunHT executes one hash-table experiment point. The table layout and
// access protocol are RACE's; cfg.Opts selects between the RACE
// baseline (per-thread QP, no SMART techniques) and SMART-HT
// (thread-aware allocation + throttling + conflict avoidance), or any
// intermediate breakdown configuration (Fig. 8).
func RunHT(cfg HTConfig) HTResult {
	cfg.ComputeBlades = max(cfg.ComputeBlades, 1)
	if cfg.MemoryBlades <= 0 {
		cfg.MemoryBlades = 2
	}
	if cfg.Keys == 0 {
		cfg.Keys = 200_000
	}
	if cfg.Mix.Name == "" {
		cfg.Mix = workload.ReadOnly
	}
	r := runApp(app{
		name: "ht",
		cluster: cluster.Config{
			ComputeBlades: cfg.ComputeBlades,
			MemoryBlades:  cfg.MemoryBlades,
			BladeCapacity: bladeCapacityFor(cfg.Keys, cfg.MemoryBlades),
			Seed:          cfg.Seed,
		},
		threads:    cfg.ThreadsPerBlade,
		opts:       ScaleAdaptation(cfg.Opts),
		warmup:     cfg.Warmup,
		measure:    cfg.Measure,
		targetRate: cfg.TargetMOPS,
		load: func(cl *cluster.Cluster) newBladeFunc {
			tbl := race.Create(cl.Targets(), race.Config{
				Groups:       groupsFor(cfg.Keys),
				InitialDepth: 3,
				MaxDepth:     8,
			})
			for k := uint64(0); k < cfg.Keys; k++ {
				tbl.LoadDirect(k, k)
			}
			// ζ(Keys, Theta) is O(Keys): summed once here, not per coroutine.
			ycsb := workload.NewYCSB(nil, cfg.Keys, cfg.Theta, cfg.Mix)
			return func(b int, _ *core.Runtime) newCoroFunc {
				client := race.NewClient(tbl)
				return func(ti, d int) opFunc {
					seed := cfg.Seed + int64(b)*1_000_003 + int64(ti)*1_009 + int64(d)*13 + 1
					gen := ycsb.WithRand(rand.New(rand.NewSource(seed)))
					return func(c *core.Ctx, start sim.Time) (sim.Time, int) {
						op, key := gen.Next()
						if op != workload.Update {
							client.Lookup(c, key)
							return start, noCount
						}
						return start, client.Update(c, key, uint64(start))
					}
				}
			}
		},
	})

	res := HTResult{
		MOPS:        r.mops,
		Median:      r.lat.P50,
		P99:         r.lat.P99,
		RetryDist:   r.counts,
		Ops:         r.ops,
		VerbMOPS:    r.verbMOPS,
		Fingerprint: r.fingerprint,
	}
	if updates := r.counts.Total(); updates > 0 {
		res.AvgRetries = float64(r.casFailed) / float64(updates)
	}
	return res
}

// groupsFor sizes segments so the load fits without splits at a
// realistic fill factor.
func groupsFor(keys uint64) int {
	// 8 initial-depth segments, 14*0.6 = 8.4 keys per group: 60% of the
	// 14 slots a key's pair reaches, ~40% of a group's 21 slots.
	per := keys / 8
	return max(int(float64(per)/(14*0.6)), 64)
}

// bladeCapacityFor sizes each memory blade for a RACE table of keys
// spread over blades, with 64 MB of slack. Blades allocate a page on
// its first write, so the capacity is only the bound past which Alloc
// panics (an OOM guard), not host memory the point pays for.
func bladeCapacityFor(keys uint64, blades int) uint64 {
	per := keys * 64 / uint64(blades)
	return max(per, 64<<20) + (64 << 20)
}

// RACEBaseline returns the configuration the paper labels "RACE":
// per-thread QPs with the driver's default doorbell mapping and no
// SMART techniques, depth-8 coroutines.
func RACEBaseline() core.Options {
	return core.Baseline(core.PerThreadQP)
}
