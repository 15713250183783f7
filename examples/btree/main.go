// Btree: demonstrate the speculative-lookup optimization on the
// Sherman B+Tree. The same read-only workload runs against Sherman+
// (full 1 KiB leaf READs, bandwidth-bound) and SMART-BT (16-byte
// speculative READs through SMART, IOPS-bound), printing throughput,
// latency, the fast-path hit rate, and the verb rate. Both runs are
// one bench.RunBT point, the harness every B+Tree figure uses;
// examples/quickstart shows the SMART API itself.
package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/workload"
)

// defaults sizes both runs; main_test.go shrinks it to check that equal
// seeds reproduce identical results. As in §6.2.3 every server is both
// a compute and a memory blade.
var defaults = bench.BTConfig{
	Servers:         2,
	ThreadsPerBlade: 24,
	Keys:            50_000,
	Theta:           0.99,
	Mix:             workload.ReadOnly,
	Warmup:          4 * sim.Millisecond,
	Measure:         4 * sim.Millisecond,
	Seed:            9,
}

func run(v bench.BTVariant, cfg bench.BTConfig) bench.BTResult {
	cfg.Variant = v
	return bench.RunBT(cfg)
}

func main() {
	cfg := defaults
	fmt.Printf("%s Zipf θ=%.2f lookups, %d servers x %d threads x 8 coroutines, %d keys\n\n", cfg.Mix.Name, cfg.Theta, cfg.Servers, cfg.ThreadsPerBlade, cfg.Keys)
	for _, v := range []bench.BTVariant{bench.ShermanPlus, bench.SmartBT} {
		r := run(v, cfg)
		fmt.Printf("%-10s %v  %.2f verbs/µs\n", v, r, r.VerbMOPS)
	}
}
