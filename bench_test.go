// Package repro's top-level benchmarks: one testing.B target per table
// and figure of the paper. Each benchmark runs its experiment's quick
// sweep once per b.N iteration and reports the headline throughput of
// a representative point as a custom metric, so `go test -bench=.`
// regenerates every result. Use cmd/smartbench for the full sweeps.
package repro

import (
	"os"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/result"
	"repro/internal/rnic"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// runExperiment executes the quick sweep of one experiment per b.N,
// rendering the regenerated rows/series so the benchmark log carries
// the paper's tables and figures.
func runExperiment(b *testing.B, id string) {
	e := bench.ByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	env := bench.Env{Sweeper: sweep.Sequential(), Quick: true}
	for i := 0; i < b.N; i++ {
		result.Text(os.Stdout, e.Run(env))
	}
}

func BenchmarkFig3(b *testing.B) {
	runExperiment(b, "fig3")
	r := bench.RunMicro(bench.MicroConfig{
		Opts: core.Baseline(core.PerThreadDoorbell), Threads: 96, Batch: 8,
		Op: rnic.OpRead, Seed: 11,
	})
	b.ReportMetric(r.MOPS, "MOPS@96thr-ptdb")
}

func BenchmarkFig4(b *testing.B) {
	runExperiment(b, "fig4")
	r := bench.RunMicro(bench.MicroConfig{
		Opts: core.Baseline(core.PerThreadDoorbell), Threads: 96, Batch: 32,
		Op: rnic.OpRead, Seed: 12,
	})
	b.ReportMetric(r.MOPS, "MOPS@96x32")
	b.ReportMetric(r.DMABytesPerWR, "DMA-B/WR@96x32")
}

func BenchmarkFig5(b *testing.B) {
	runExperiment(b, "fig5")
	r := bench.RunHT(bench.HTConfig{
		Opts: bench.RACEBaseline(), ThreadsPerBlade: 8,
		Theta: 0.99, Mix: workload.UpdateOnly, Keys: 200_000, Seed: 21,
	})
	b.ReportMetric(r.MOPS, "RACE-MOPS@8thr")
}

func BenchmarkFig7(b *testing.B) {
	runExperiment(b, "fig7")
	r := bench.RunHT(bench.HTConfig{
		Opts: core.Smart(), ThreadsPerBlade: 48,
		Theta: 0.99, Mix: workload.WriteHeavy, Keys: 200_000, Seed: 22,
	})
	b.ReportMetric(r.MOPS, "SMART-HT-MOPS@48thr-writeheavy")
}

func BenchmarkFig8(b *testing.B) {
	runExperiment(b, "fig8")
}

func BenchmarkFig9(b *testing.B) {
	runExperiment(b, "fig9")
	r := bench.RunHT(bench.HTConfig{
		Opts: core.Smart(), ThreadsPerBlade: 96,
		Theta: 0.99, Mix: workload.ReadOnly, Keys: 200_000, Seed: 24,
	})
	b.ReportMetric(float64(r.Median)/1e3, "p50-us@max")
}

func BenchmarkFig10(b *testing.B) {
	runExperiment(b, "fig10")
	r := bench.RunDTX(bench.DTXConfig{Workload: bench.SmallBank, Threads: 96, Seed: 31})
	b.ReportMetric(r.MTPS, "SMART-DTX-MTPS@96thr")
}

func BenchmarkFig11(b *testing.B) {
	runExperiment(b, "fig11")
}

func BenchmarkFig12(b *testing.B) {
	runExperiment(b, "fig12")
	r := bench.RunBT(bench.BTConfig{
		Variant: bench.SmartBT, ThreadsPerBlade: 94,
		Theta: 0.99, Mix: workload.ReadOnly, Keys: 200_000, Seed: 33,
	})
	b.ReportMetric(r.MOPS, "SMART-BT-MOPS@94thr-readonly")
}

func BenchmarkFig13(b *testing.B) {
	runExperiment(b, "fig13")
}

func BenchmarkFig14(b *testing.B) {
	runExperiment(b, "fig14")
}

func BenchmarkTable1(b *testing.B) {
	runExperiment(b, "tab1")
}

// BenchmarkAblations regenerates the ablation studies (DESIGN.md §6):
// doorbell count, WQE cache size, conflict-avoidance watermarks,
// backoff unit, speculative-cache size, and payload-size transition.
func BenchmarkAblations(b *testing.B) {
	for _, id := range []string{"abl-db", "abl-wqe", "abl-gamma", "abl-t0", "abl-spec", "abl-payload"} {
		runExperiment(b, id)
	}
}
