package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/blade"
	"repro/internal/result"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// instrumented returns opts with a fresh telemetry registry, the
// condition under which each thread keeps its latency histogram.
func instrumented(opts Options) Options {
	opts.Telemetry = telemetry.New()
	return opts
}

// TestThreadStatsAccumulation pins the basic bookkeeping contract:
// every BeginOp/EndOp bracket counts one op, every completed WR counts
// once, and TotalStats is the exact per-thread sum.
func TestThreadStatsAccumulation(t *testing.T) {
	_, rt := testRig(t, 2, 1, instrumented(Baseline(PerThreadQP)))
	addr := blade.Addr{Blade: 1, Offset: 64}
	const opsPer = 5
	for _, th := range rt.Threads() {
		th.Spawn("worker", func(c *Ctx) {
			buf := make([]byte, 8)
			for i := 0; i < opsPer; i++ {
				c.BeginOp()
				c.ReadSync(addr, buf)
				c.WriteSync(addr, buf)
				c.EndOp()
			}
		})
	}
	rt.Engine().Run(0)

	tot := rt.TotalStats()
	if want := uint64(2 * opsPer); tot.Ops != want {
		t.Errorf("total Ops = %d, want %d", tot.Ops, want)
	}
	if want := uint64(2 * opsPer * 2); tot.WRs != want {
		t.Errorf("total WRs = %d, want %d", tot.WRs, want)
	}
	for _, th := range rt.Threads() {
		if th.Stats.Ops != opsPer {
			t.Errorf("thread %d Ops = %d, want %d", th.ID, th.Stats.Ops, opsPer)
		}
		if got := th.LatHist().Count(); got != opsPer {
			t.Errorf("thread %d latency samples = %d, want %d", th.ID, got, opsPer)
		}
		if th.LatHist().Mean() <= 0 {
			t.Errorf("thread %d op latency mean = %v, want > 0", th.ID, th.LatHist().Mean())
		}
		if th.OWRMax() < 1 {
			t.Errorf("thread %d OWR high-water = %d, want >= 1", th.ID, th.OWRMax())
		}
	}
}

// TestZeroOpThreadStats covers the idle-thread edge: threads that
// never run an operation must report zeroes (not garbage), an empty
// latency histogram, and must not contribute latency rows to Collect.
func TestZeroOpThreadStats(t *testing.T) {
	_, rt := testRig(t, 4, 1, instrumented(Baseline(PerThreadQP)))
	addr := blade.Addr{Blade: 1, Offset: 0}
	rt.Thread(0).Spawn("only-worker", func(c *Ctx) {
		buf := make([]byte, 8)
		c.BeginOp()
		c.ReadSync(addr, buf)
		c.EndOp()
	})
	rt.Engine().Run(0)

	for _, th := range rt.Threads()[1:] {
		if th.Stats != (ThreadStats{}) {
			t.Errorf("idle thread %d has stats %+v", th.ID, th.Stats)
		}
		if th.LatHist().Count() != 0 {
			t.Errorf("idle thread %d has %d latency samples", th.ID, th.LatHist().Count())
		}
		if s := th.LatHist().Summary(); s.Mean != 0 || s.P99 != 0 {
			t.Errorf("idle thread %d summary not zero: %+v", th.ID, s)
		}
	}

	reg := telemetry.New()
	rt.Collect(reg)
	tab := result.Find(reg.Tables(), "threads")
	if tab == nil {
		t.Fatal("Collect did not export a threads table")
	}
	if got := len(tab.Points("ops")); got != 4 {
		t.Errorf("ops rows = %d, want one per thread (4)", got)
	}
	// Latency percentiles exist only for the one active thread.
	if got := len(tab.Points("lat-p50-us")); got != 1 {
		t.Errorf("lat-p50-us rows = %d, want 1 (zero-op threads omitted)", got)
	}
	if rt.TotalStats().Ops != 1 {
		t.Errorf("total ops = %d, want 1", rt.TotalStats().Ops)
	}
}

// TestStatsAfterStopUnwind extends PR 1's serialized-teardown fix to
// the stats layer: coroutines killed mid-operation run their deferred
// EndOp exactly once during the unwind, so op counts and latency
// sample counts stay paired and nothing double-counts.
func TestStatsAfterStopUnwind(t *testing.T) {
	// The C_max tuner holds its first candidate for Δ (8 ms), so the
	// ceiling stays put over this 200 µs run.
	cl, rt := testRig(t, 3, 1, instrumented(Smart()))
	addr := blade.Addr{Blade: 1, Offset: 8}
	for _, th := range rt.Threads() {
		for k := 0; k < 2; k++ {
			th.Spawn("looper", func(c *Ctx) {
				buf := make([]byte, 8)
				for {
					func() {
						c.BeginOp()
						defer c.EndOp()
						c.ReadSync(addr, buf)
					}()
				}
			})
		}
	}
	rt.Engine().Run(200 * sim.Microsecond) // then kill mid-flight
	rt.Stop()
	cl.Stop() // serialized unwind runs the deferred EndOps

	for _, th := range rt.Threads() {
		if th.Stats.Ops == 0 {
			t.Errorf("thread %d completed no ops before Stop", th.ID)
		}
		// One latency sample per EndOp — deferred EndOps during the
		// unwind must be counted exactly once.
		if th.LatHist().Count() != th.Stats.Ops {
			t.Errorf("thread %d: %d latency samples vs %d ops",
				th.ID, th.LatHist().Count(), th.Stats.Ops)
		}
	}

	// Collect still works on a stopped engine.
	reg := telemetry.New()
	rt.Collect(reg)
	if reg.Value("core/ops") != rt.TotalStats().Ops {
		t.Errorf("collected core/ops = %d, want %d",
			reg.Value("core/ops"), rt.TotalStats().Ops)
	}
	if reg.Value("engine/parks") == 0 || reg.Value("engine/wakes") == 0 {
		t.Error("engine park/wake counters not harvested")
	}
}

// TestCollectIdempotentAndDeterministic runs one instrumented
// workload, harvests it twice into separate registries, and requires
// byte-identical rendered output — plus no double-counting when the
// same registry is harvested twice.
func TestCollectIdempotentAndDeterministic(t *testing.T) {
	reg := telemetry.New()
	opts := Baseline(PerThreadDoorbell)
	opts.Telemetry = reg
	_, rt := testRig(t, 4, 2, opts)
	addr := blade.Addr{Blade: 1, Offset: 0}
	for _, th := range rt.Threads() {
		th.Spawn("w", func(c *Ctx) {
			buf := make([]byte, 8)
			for i := 0; i < 3; i++ {
				c.BeginOp()
				c.ReadSync(addr, buf)
				c.EndOp()
			}
		})
	}
	rt.Engine().Run(0)

	render := func(r *telemetry.Registry) []byte {
		rt.Collect(r)
		doc := &result.Document{Generator: "test", Experiments: []result.Experiment{
			{ID: "t", Title: "t", Tables: r.Tables()},
		}}
		var buf bytes.Buffer
		if err := result.JSON(&buf, doc); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := render(telemetry.New())
	b := render(telemetry.New())
	if !bytes.Equal(a, b) {
		t.Error("two Collect harvests rendered differently")
	}

	// A repeat harvest into the same registry replaces Collect's rows
	// and counters: the rendered registry is unchanged, with one
	// threads/ops row per thread, not two.
	once := render(reg)
	if twice := render(reg); !bytes.Equal(once, twice) {
		t.Error("a repeat Collect into one registry changed its rendering")
	}
	if got := len(result.Find(reg.Tables(), "threads").Points("ops")); got != 4 {
		t.Errorf("threads/ops rows after two harvests = %d, want 4", got)
	}
	if reg.Value("db/acquisitions-total") == 0 {
		t.Error("doorbell acquisitions not harvested")
	}
	if reg.Value("db/rings-total") != rt.TotalStats().WRs {
		t.Errorf("db/rings-total = %d, want one ring per WR (%d)",
			reg.Value("db/rings-total"), rt.TotalStats().WRs)
	}
}

// TestNoLatencyHistogramWithoutTelemetry pins the uninstrumented
// thread: it keeps no latency histogram, EndOp records nothing, and
// Collect into a fresh registry (as a caller that harvests counters
// from an uninstrumented runtime does) exports the threads group's
// op rows and no lat-* rows.
func TestNoLatencyHistogramWithoutTelemetry(t *testing.T) {
	_, rt := testRig(t, 2, 1, Baseline(PerThreadQP))
	addr := blade.Addr{Blade: 1, Offset: 0}
	for _, th := range rt.Threads() {
		th.Spawn("w", func(c *Ctx) {
			buf := make([]byte, 8)
			for i := 0; i < 3; i++ {
				c.BeginOp()
				c.ReadSync(addr, buf)
				c.EndOp()
			}
		})
	}
	rt.Engine().Run(0)

	for _, th := range rt.Threads() {
		if th.LatHist() != nil {
			t.Errorf("thread %d has a latency histogram without telemetry", th.ID)
		}
		if th.Stats.Ops != 3 {
			t.Errorf("thread %d Ops = %d, want 3", th.ID, th.Stats.Ops)
		}
	}
	reg := telemetry.New()
	rt.Collect(reg)
	tab := result.Find(reg.Tables(), "threads")
	if tab == nil {
		t.Fatal("Collect did not export a threads table")
	}
	if got := len(tab.Points("ops")); got != 2 {
		t.Errorf("ops rows = %d, want one per thread (2)", got)
	}
	for _, s := range tab.Series {
		if strings.HasPrefix(s.Name, "lat-") {
			t.Errorf("threads table has a %s column without telemetry", s.Name)
		}
	}
}
