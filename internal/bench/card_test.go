package bench

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/rnic"
	"repro/internal/sim"
)

// Closed-form anchors for the card model, as mmc_test.go anchors the
// serving knee: each regime's measured number is predicted from
// rnic.Default() alone, with nothing fitted. Regimes still without an
// anchor: the pipeline ceiling, and doorbell sharing beyond the
// medium-latency doorbell count (a finite-source queue per doorbell).

// linkNS is the link occupancy of a message of the given size, rounded
// to the nanosecond as the card charges it.
func linkNS(p rnic.Params, bytes int) float64 {
	return math.Floor(float64(bytes)/p.LinkBytesPerNS + 0.5)
}

// readRTT is the unloaded round trip of a READ of payload bytes, from
// its launch to its completion: requester pipeline, outbound link, the
// wire both ways, responder pipeline, inbound link and CQE processing,
// plus the expected MTT-miss penalty of one device context.
func readRTT(p rnic.Params, payload int) float64 {
	return float64(p.ReadService) + linkNS(p, p.HeaderBytes) +
		2*float64(p.OneWayLatency) + float64(p.ResponderService) +
		linkNS(p, p.HeaderBytes+payload) + float64(p.CQEService) +
		p.MTTMissProbSingleCtx*float64(p.MTTMissPipe+p.MTTMissLatency)
}

// dmaPerWR is the expected host-DRAM traffic of one READ WR with the
// given number of WRs outstanding on the card: the base WQE/CQE
// traffic and payload, the 64 B MTT fetch RNIC.Submit charges a miss,
// and the WQE refetch at the cache's miss rate.
func dmaPerWR(p rnic.Params, payload, outstanding int) float64 {
	miss := 1 - math.Min(1, float64(p.WQECacheEntries)/float64(outstanding))
	return float64(p.BaseDMABytes+payload) + p.MTTMissProbSingleCtx*64 +
		miss*float64(p.WQEMissDMABytes)
}

// TestCardMatchesClosedForms pins two regimes of the card to their
// closed forms. Each tolerance is set from the first measurement.
//
// (a) Uncontended posting: with a doorbell per thread and no throttle,
// a thread posts its B READs one at a time, each holding its QP lock
// and doorbell uncontended, then waits one round trip for the last, so
// MOPS = T·B / (B·(QPLockHold + DBHold) + RTT). The first measurement
// was within 0.14 % at every point (4x4 the farthest, low: a batch
// also waits when an earlier WR's MTT miss outlasts the last WR); the
// tolerance is 0.2 %.
//
// (c) DMA bytes per WR, fig4b's counter, on fig4's quick grid, taking
// the card's outstanding count as T·B. Below the WQE cache the formula
// is exact up to MTT-miss sampling (first measurement within 0.05 %;
// tolerance 0.1 %). Above it, T·B is the most the card can hold
// outstanding, so the formula is an upper bound. 96x32 comes
// within 2.1 % of it (tolerance 3 %). 36x32 does not fit: it reads the
// below-cache value, because the card never holds 1024 WRs there, and
// how many it holds at the pipeline ceiling is a regime this test does
// not yet predict; it is held to the bound alone.
func TestCardMatchesClosedForms(t *testing.T) {
	p := rnic.Default()
	const payload = 8
	run := func(threads, batch int) MicroResult {
		return RunMicro(MicroConfig{
			Opts:    core.Baseline(core.PerThreadDoorbell),
			Threads: threads, Batch: batch, Op: rnic.OpRead, Payload: payload,
			Seed: 1,
		})
	}
	rel := func(got, want float64) float64 { return (got - want) / want }

	post := float64(p.QPLockHold + p.DBHold)
	for _, threads := range []int{1, 4} {
		for _, batch := range []int{1, 4, 16, 64} {
			r := run(threads, batch)
			want := float64(threads*batch) / (float64(batch)*post + readRTT(p, payload)) * float64(sim.Microsecond)
			t.Logf("(a) %dx%d: %.4f MOPS, predicted %.4f (%+.3f%%)", threads, batch, r.MOPS, want, 100*rel(r.MOPS, want))
			if math.Abs(rel(r.MOPS, want)) > 0.002 {
				t.Errorf("(a) %dx%d: %.4f MOPS, closed form %.4f: off by more than 0.2%%", threads, batch, r.MOPS, want)
			}
		}
	}

	for _, threads := range []int{36, 96} {
		for _, batch := range []int{2, 8, 32} {
			r := run(threads, batch)
			got, want := r.DMABytesPerWR, dmaPerWR(p, payload, threads*batch)
			t.Logf("(c) %dx%d: %.3f B/WR, predicted %.3f (%+.3f%%)", threads, batch, got, want, 100*rel(got, want))
			switch {
			case threads*batch <= p.WQECacheEntries:
				if math.Abs(rel(got, want)) > 0.001 {
					t.Errorf("(c) %dx%d: %.3f B/WR, closed form %.3f: off by more than 0.1%%", threads, batch, got, want)
				}
			case got > want:
				t.Errorf("(c) %dx%d: %.3f B/WR above the closed form's bound %.3f", threads, batch, got, want)
			case threads == 96 && rel(got, want) < -0.03:
				t.Errorf("(c) %dx%d: %.3f B/WR, closed form %.3f: more than 3%% below", threads, batch, got, want)
			}
		}
	}
}
