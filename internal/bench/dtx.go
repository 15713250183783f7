package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/blade"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ford"
	"repro/internal/sim"
)

// DTXWorkload selects the OLTP benchmark (§6.2.2).
type DTXWorkload int

const (
	SmallBank DTXWorkload = iota
	TATP
)

func (w DTXWorkload) String() string {
	if w == TATP {
		return "TATP"
	}
	return "SmallBank"
}

// DTXConfig drives the distributed-transaction experiments: records on
// two NVM memory blades, one compute blade running the transaction
// mix. FORDPlus selects the baseline (per-thread QP, no SMART) versus
// SMART-DTX.
type DTXConfig struct {
	Workload        DTXWorkload
	FORDPlus        bool // baseline instead of SMART-DTX
	Threads         int
	MemoryBlades    int    // default 2
	Records         uint64 // accounts / subscribers (default 100k)
	Warmup, Measure sim.Time
	Seed            int64

	// TargetMTPS throttles to ~this committed-transaction rate for the
	// Fig. 11 latency sweep.
	TargetMTPS float64
}

// DTXResult is one measured point.
type DTXResult struct {
	MTPS      float64 // committed transactions per microsecond
	Median    sim.Time
	P99       sim.Time
	AbortRate float64 // aborts per committed transaction
	Txns      uint64

	// Fingerprint is the run's event fingerprint, sim.Engine.Fingerprint
	// at the horizon: equal for two runs that executed the same events.
	Fingerprint uint64
}

func (r DTXResult) String() string {
	return fmt.Sprintf("%.2f MTPS  p50=%v p99=%v  aborts/txn=%.3f", r.MTPS, r.Median, r.P99, r.AbortRate)
}

// RunDTX executes one distributed-transaction experiment point.
func RunDTX(cfg DTXConfig) DTXResult {
	if cfg.MemoryBlades <= 0 {
		cfg.MemoryBlades = 2
	}
	if cfg.Records == 0 {
		cfg.Records = 100_000
	}
	opts := core.Smart()
	if cfg.FORDPlus {
		opts = core.Baseline(core.PerThreadQP)
	}
	r := runApp(app{
		name: "dtx",
		cluster: cluster.Config{
			ComputeBlades: 1,
			MemoryBlades:  cfg.MemoryBlades,
			MemoryKind:    blade.NVM,
			// +128 MB of slack for undo logs: an OOM guard, not a memory
			// cost, since blades only commit the pages written.
			BladeCapacity: cfg.Records*600/uint64(cfg.MemoryBlades) + (128 << 20),
			Seed:          cfg.Seed,
		},
		threads:    cfg.Threads,
		opts:       ScaleAdaptation(opts),
		warmup:     cfg.Warmup,
		measure:    cfg.Measure,
		targetRate: cfg.TargetMTPS,
		load: func(cl *cluster.Cluster) newBladeFunc {
			var runTxn func(c *core.Ctx, rng *rand.Rand) (aborts int)
			switch cfg.Workload {
			case TATP:
				tp := ford.NewTATP(cl.Targets(), cfg.Records)
				tp.Load()
				runTxn = tp.RunOne
			default:
				sb := ford.NewSmallBank(cl.Targets(), cfg.Records)
				sb.Load()
				runTxn = sb.RunOne
			}
			// The database handle is the only client state, so the
			// coroutines of the (single) compute blade share it.
			return func(int, *core.Runtime) newCoroFunc {
				return func(ti, d int) opFunc {
					rng := rand.New(rand.NewSource(cfg.Seed + int64(ti)*1_021 + int64(d)*19 + 1))
					return func(c *core.Ctx, start sim.Time) (sim.Time, int) { return start, runTxn(c, rng) }
				}
			}
		},
	})
	return DTXResult{
		MTPS:        r.mops,
		Median:      r.lat.P50,
		P99:         r.lat.P99,
		AbortRate:   r.counts.Mean(), // every transaction reports its aborts
		Txns:        r.ops,
		Fingerprint: r.fingerprint,
	}
}
