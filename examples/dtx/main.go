// Dtx: run SmallBank transactions over FORD-style one-sided
// transactions on NVM memory blades, comparing FORD+ with SMART-DTX at
// a high thread count — the Fig. 10 story in miniature. Both runs are
// one bench.RunDTX point, the harness every transaction figure uses;
// examples/quickstart shows the SMART API itself.
package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/sim"
)

// defaults sizes both runs; main_test.go shrinks it to check that equal
// seeds reproduce identical results.
var defaults = bench.DTXConfig{
	Workload: bench.SmallBank,
	Threads:  64,
	Records:  20_000,
	Warmup:   4 * sim.Millisecond,
	Measure:  4 * sim.Millisecond,
	Seed:     5,
}

func run(fordPlus bool, cfg bench.DTXConfig) bench.DTXResult {
	cfg.FORDPlus = fordPlus
	return bench.RunDTX(cfg)
}

func main() {
	cfg := defaults
	fmt.Printf("%v over FORD-style one-sided transactions on NVM, %d threads x 8 coroutines\n\n", cfg.Workload, cfg.Threads)
	fmt.Printf("%-10s %v\n", "FORD+", run(true, cfg))
	fmt.Printf("%-10s %v\n", "SMART-DTX", run(false, cfg))
}
