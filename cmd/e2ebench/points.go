package main

// points.go is the only file that calls into internal/bench. Each
// adapter turns (baseline or SMART, shape, seed, windows) into one
// harness call, so when the three application harnesses collapse into
// one (ROADMAP item 3) re-pointing the benchmark edits this file and
// nothing else: workload definitions, replicas and the ladder do not
// move.

import (
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/workload"
)

// pointResult is what the benchmark keeps of one harness point. Every
// field is simulated, so two executions of the same point must agree
// on all of them exactly (the struct is compared with ==).
type pointResult struct {
	Ops      uint64  // completed inside the measure window
	Mops     float64 // modelled throughput (Mtxn/s on dtx_smallbank)
	P50, P99 sim.Time

	Retries   float64 // ht_write: failed CAS per update
	SpecHit   float64 // bt_read: speculative-lookup hit rate
	AbortRate float64 // dtx_smallbank: aborts per committed txn
}

// pointFunc runs one point of a workload through the real harness.
type pointFunc func(smart bool, sh shape, seed int64, warmup, measure sim.Time) pointResult

// smartOpts is the SMART configuration every harness ends up running:
// RunHT/RunBT/RunDTX apply ScaleAdaptation themselves, RunMicro takes
// it from the caller. The replicas and the ladder share it.
func smartOpts() core.Options { return bench.ScaleAdaptation(core.Smart()) }

func microPoint(smart bool, sh shape, seed int64, warmup, measure sim.Time) pointResult {
	opts := core.Baseline(core.PerThreadQP)
	if smart {
		opts = smartOpts()
	}
	r := bench.RunMicro(bench.MicroConfig{
		Opts: opts, Threads: sh.threads, Batch: microBatch, Op: rnic.OpRead,
		Payload: microPayload, Blades: 1, Warmup: warmup, Measure: measure, Seed: seed,
	})
	return pointResult{Ops: r.Completed, Mops: r.MOPS}
}

func htPoint(smart bool, sh shape, seed int64, warmup, measure sim.Time) pointResult {
	opts := bench.RACEBaseline()
	if smart {
		opts = core.Smart()
	}
	r := bench.RunHT(bench.HTConfig{
		Opts: opts, ThreadsPerBlade: sh.threads, MemoryBlades: 2, Keys: sh.keys,
		Theta: zipfTheta, Mix: workload.WriteHeavy, Warmup: warmup, Measure: measure, Seed: seed,
	})
	return pointResult{Ops: r.Ops, Mops: r.MOPS, P50: r.Median, P99: r.P99, Retries: r.AvgRetries}
}

func btPoint(smart bool, sh shape, seed int64, warmup, measure sim.Time) pointResult {
	variant := bench.ShermanPlus
	if smart {
		variant = bench.SmartBT
	}
	r := bench.RunBT(bench.BTConfig{
		Variant: variant, Servers: 1, ThreadsPerBlade: sh.threads, Keys: sh.keys,
		Theta: zipfTheta, Mix: workload.ReadOnly, Warmup: warmup, Measure: measure, Seed: seed,
	})
	return pointResult{Ops: r.Ops, Mops: r.MOPS, P50: r.Median, P99: r.P99, SpecHit: r.SpecHit}
}

func dtxPoint(smart bool, sh shape, seed int64, warmup, measure sim.Time) pointResult {
	r := bench.RunDTX(bench.DTXConfig{
		Workload: bench.SmallBank, FORDPlus: !smart, Threads: sh.threads, MemoryBlades: 2,
		Records: sh.keys, Warmup: warmup, Measure: measure, Seed: seed,
	})
	return pointResult{Ops: r.Txns, Mops: r.MTPS, P50: r.Median, P99: r.P99, AbortRate: r.AbortRate}
}
