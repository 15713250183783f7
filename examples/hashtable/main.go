// Hashtable: run a small YCSB workload against the RACE hash table
// twice — once with the RACE baseline configuration (per-thread QP,
// default doorbells, no throttling or backoff) and once as SMART-HT —
// and print the throughput, latency, and retry comparison that
// motivates Figures 7 and 14. Both runs are one bench.RunHT point, the
// harness every hash-table figure uses; examples/quickstart shows the
// SMART API itself.
package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// defaults sizes both runs; main_test.go shrinks it to check that equal
// seeds reproduce identical results.
var defaults = bench.HTConfig{
	ThreadsPerBlade: 32,
	Keys:            50_000,
	Theta:           0.99,
	Mix:             workload.WriteHeavy,
	Warmup:          4 * sim.Millisecond,
	Measure:         4 * sim.Millisecond,
	Seed:            7,
}

func run(opts core.Options, cfg bench.HTConfig) bench.HTResult {
	cfg.Opts = opts
	return bench.RunHT(cfg)
}

func main() {
	cfg := defaults
	fmt.Printf("%s YCSB, Zipf θ=%.2f, %d threads x 8 coroutines, %d keys\n\n", cfg.Mix.Name, cfg.Theta, cfg.ThreadsPerBlade, cfg.Keys)
	fmt.Printf("%-10s %v\n", "RACE", run(bench.RACEBaseline(), cfg))
	fmt.Printf("%-10s %v\n", "SMART-HT", run(core.Smart(), cfg))
}
