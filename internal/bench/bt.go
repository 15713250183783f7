package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sherman"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BTVariant selects the B⁺Tree system under test (Fig. 12).
type BTVariant int

const (
	// ShermanPlus is Sherman with the per-cacheline-version fix:
	// per-thread QP baseline, full-leaf reads.
	ShermanPlus BTVariant = iota
	// ShermanPlusSL adds the speculative-lookup cache but keeps the
	// baseline RDMA configuration.
	ShermanPlusSL
	// SmartBT is speculative lookup plus the full SMART framework.
	SmartBT
)

func (v BTVariant) String() string {
	switch v {
	case ShermanPlus:
		return "Sherman+"
	case ShermanPlusSL:
		return "Sherman+ w/SL"
	case SmartBT:
		return "SMART-BT"
	}
	return "?"
}

// Options returns the core configuration for a variant.
func (v BTVariant) Options() core.Options {
	if v == SmartBT {
		return core.Smart()
	}
	return core.Baseline(core.PerThreadQP)
}

// Speculative reports whether the variant uses the lookup cache.
func (v BTVariant) Speculative() bool { return v != ShermanPlus }

// BTConfig drives the B⁺Tree experiments. Following §6.2.3, every
// server acts as both a memory blade and a compute blade (94 compute
// threads max per server).
type BTConfig struct {
	Variant         BTVariant
	Servers         int // blades; each contributes compute + memory
	ThreadsPerBlade int
	Keys            uint64
	Theta           float64
	Mix             workload.Mix
	Warmup, Measure sim.Time
	Seed            int64

	// SpecCacheEntries overrides the speculative cache bound
	// (0 = sherman.DefaultSpecCacheEntries). Used by the ablation.
	SpecCacheEntries int
}

// BTResult is one measured point.
type BTResult struct {
	MOPS     float64
	Median   sim.Time
	P99      sim.Time
	Ops      uint64
	SpecHit  float64 // fast-path hit rate (0 when disabled)
	VerbMOPS float64

	// Fingerprint is the run's event fingerprint, sim.Engine.Fingerprint
	// at the horizon: equal for two runs that executed the same events.
	Fingerprint uint64
}

func (r BTResult) String() string {
	return fmt.Sprintf("%.2f MOPS  p50=%v p99=%v  spec-hit=%.2f", r.MOPS, r.Median, r.P99, r.SpecHit)
}

// RunBT executes one B⁺Tree experiment point.
func RunBT(cfg BTConfig) BTResult {
	cfg.Servers = max(cfg.Servers, 1)
	if cfg.Keys == 0 {
		cfg.Keys = 200_000
	}
	if cfg.Mix.Name == "" {
		cfg.Mix = workload.ReadOnly
	}
	speculative := cfg.Variant.Speculative()
	var clients []*sherman.Client
	r := runApp(app{
		name: "bt",
		cluster: cluster.Config{
			ComputeBlades: cfg.Servers,
			MemoryBlades:  cfg.Servers,
			// The +64 MB of slack is an OOM guard, not a memory cost:
			// blades only commit the pages written.
			BladeCapacity: cfg.Keys*40/uint64(cfg.Servers) + (64 << 20),
			Seed:          cfg.Seed,
		},
		threads: cfg.ThreadsPerBlade,
		opts:    ScaleAdaptation(cfg.Variant.Options()),
		warmup:  cfg.Warmup,
		measure: cfg.Measure,
		load: func(cl *cluster.Cluster) newBladeFunc {
			keys := make([]uint64, cfg.Keys)
			for i := range keys {
				keys[i] = uint64(i + 1)
			}
			tree := sherman.BulkLoad(cl.Targets(), keys, 0.7)
			// ζ(Keys, Theta) is O(Keys): summed once here, not per coroutine.
			ycsb := workload.NewYCSB(nil, cfg.Keys, cfg.Theta, cfg.Mix)
			return func(b int, _ *core.Runtime) newCoroFunc {
				client := sherman.NewClient(tree, cl.Eng, speculative)
				if cfg.SpecCacheEntries > 0 {
					client.SetSpecCacheEntries(cfg.SpecCacheEntries)
				}
				clients = append(clients, client)
				return func(ti, d int) opFunc {
					seed := cfg.Seed + int64(b)*999_983 + int64(ti)*1_013 + int64(d)*17 + 1
					gen := ycsb.WithRand(rand.New(rand.NewSource(seed)))
					return func(c *core.Ctx, start sim.Time) (sim.Time, int) {
						op, key := gen.Next()
						key++ // tree keys are 1-based
						if op == workload.Update {
							client.Update(c, key, uint64(start))
						} else if speculative {
							client.LookupSpec(c, key)
						} else {
							client.Lookup(c, key)
						}
						return start, noCount
					}
				}
			}
		},
	})

	res := BTResult{
		MOPS:        r.mops,
		Median:      r.lat.P50,
		P99:         r.lat.P99,
		Ops:         r.ops,
		VerbMOPS:    r.verbMOPS,
		Fingerprint: r.fingerprint,
	}
	var hits, misses uint64
	for _, c := range clients {
		hits += c.SpecHits
		misses += c.SpecMisses
	}
	if hits+misses > 0 {
		res.SpecHit = float64(hits) / float64(hits+misses)
	}
	return res
}
