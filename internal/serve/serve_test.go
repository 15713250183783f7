package serve

import (
	"testing"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func baseConfig(seed int64) Config {
	return Config{
		Runtimes:          2,
		ThreadsPerRuntime: 4,
		Clients:           3,
		Arrival:           &arrival.Spec{Kind: arrival.KindPoisson, Rate: 1},
		TxnFrac:           0.25,
		Warmup:            100 * sim.Microsecond,
		Measure:           500 * sim.Microsecond,
		Seed:              seed,
		Opts:              core.Baseline(core.PerThreadDoorbell),
	}
}

// TestRoutingDeterminism pins the serving determinism contract: the
// same seed must route, shed, and complete byte-identically — per
// runtime and per blade — while a different seed must actually change
// the request stream. CI runs this under -race to prove the pipeline
// shares no state with anything concurrent.
func TestRoutingDeterminism(t *testing.T) {
	a := Run(baseConfig(42))
	b := Run(baseConfig(42))
	if a.Offered == 0 || a.Completed == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
	if a.Offered != b.Offered || a.Admitted != b.Admitted ||
		a.Shed != b.Shed || a.Completed != b.Completed {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	for i := range a.PerRuntime {
		if a.PerRuntime[i] != b.PerRuntime[i] {
			t.Fatalf("per-runtime counts diverged: %v vs %v", a.PerRuntime, b.PerRuntime)
		}
	}
	for i := range a.PerBlade {
		if a.PerBlade[i] != b.PerBlade[i] {
			t.Fatalf("per-blade counts diverged: %v vs %v", a.PerBlade, b.PerBlade)
		}
	}
	if a.Op != b.Op || a.Wait != b.Wait || a.Service != b.Service {
		t.Fatalf("latency summaries diverged")
	}

	c := Run(baseConfig(43))
	if c.Offered == a.Offered && c.Op == a.Op {
		t.Fatalf("different seed produced an identical run")
	}
}

// TestBackpressureShedsNotBuffers drives the pipeline far past
// capacity and checks the bounded queue's contract: load is shed at
// admission, the queue never grows past its bound, and the books
// balance (offered = admitted + shed).
func TestBackpressureShedsNotBuffers(t *testing.T) {
	cfg := baseConfig(7)
	cfg.Runtimes = 1
	cfg.ThreadsPerRuntime = 2
	cfg.QueueDepth = 32
	cfg.Arrival = &arrival.Spec{Kind: arrival.KindPoisson, Rate: 64} // way past capacity
	r := Run(cfg)
	if r.Shed == 0 {
		t.Fatalf("overload shed nothing: %+v", r)
	}
	if r.Offered != r.Admitted+r.Shed {
		t.Fatalf("books don't balance: offered %d != admitted %d + shed %d",
			r.Offered, r.Admitted, r.Shed)
	}
	if r.QueueDepthPeak > cfg.QueueDepth {
		t.Fatalf("queue grew past its bound: peak %d > depth %d",
			r.QueueDepthPeak, cfg.QueueDepth)
	}
	// Admission is bounded by what the workers can drain plus one
	// queue's worth — overload must not admit unboundedly.
	if r.Admitted >= r.Offered {
		t.Fatalf("overload admitted everything: %+v", r)
	}
	if !(r.ShedFrac > 0 && r.ShedFrac < 1) {
		t.Fatalf("ShedFrac = %v", r.ShedFrac)
	}
}

// TestLatencyAccounting checks the queue-wait/service split: op
// latency spans arrival to completion, so it must dominate both
// parts, and under overload the wait component must dwarf service.
func TestLatencyAccounting(t *testing.T) {
	cfg := baseConfig(11)
	cfg.Runtimes = 1
	cfg.ThreadsPerRuntime = 2
	cfg.QueueDepth = 64
	cfg.Arrival = &arrival.Spec{Kind: arrival.KindPoisson, Rate: 32}
	r := Run(cfg)
	if r.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if r.Op.P50 < r.Wait.P50 || r.Op.P50 < r.Service.P50 {
		t.Fatalf("op latency below its components: op %v wait %v service %v",
			r.Op.P50, r.Wait.P50, r.Service.P50)
	}
	if r.Op.P999 < r.Op.P99 || r.Op.P99 < r.Op.P50 {
		t.Fatalf("percentiles not ordered: %+v", r.Op)
	}
	// Saturated single runtime: queueing, not service, is the story.
	if r.Wait.P99 < r.Service.P99 {
		t.Fatalf("under overload wait p99 (%v) should exceed service p99 (%v)",
			r.Wait.P99, r.Service.P99)
	}
	if r.Txn.Count == 0 {
		t.Fatal("no transactions measured despite TxnFrac > 0")
	}
	if r.Txn.Count >= r.Op.Count {
		t.Fatalf("txn count %d not a strict subset of ops %d", r.Txn.Count, r.Op.Count)
	}
}

// TestUnderloadKeepsUp pins the sub-knee regime: at a small fraction
// of capacity nothing is shed, goodput tracks offered load, and queue
// wait stays negligible next to service time.
func TestUnderloadKeepsUp(t *testing.T) {
	cfg := baseConfig(13)
	cfg.Arrival = &arrival.Spec{Kind: arrival.KindPoisson, Rate: 0.5}
	r := Run(cfg)
	if r.Shed != 0 {
		t.Fatalf("underload shed %d requests", r.Shed)
	}
	if r.Goodput < 0.9*r.OfferedRate {
		t.Fatalf("goodput %.3f lags offered %.3f under light load", r.Goodput, r.OfferedRate)
	}
	if r.Wait.P99 > r.Service.P99 {
		t.Fatalf("light load queue wait p99 (%v) exceeds service p99 (%v)",
			r.Wait.P99, r.Service.P99)
	}
}

// TestTelemetryCounters checks the serve/* instrumentation: admission
// counters cover the whole run (warmup included) and reconcile, the
// qdepth trajectory exists, and per-runtime harvests are namespaced.
func TestTelemetryCounters(t *testing.T) {
	cfg := baseConfig(19)
	reg := telemetry.New()
	cfg.Opts.Telemetry = reg
	r := Run(cfg)
	off := reg.Value("serve/offered")
	adm := reg.Value("serve/admitted")
	shed := reg.Value("serve/shed")
	if off == 0 || off != adm+shed {
		t.Fatalf("telemetry books don't balance: offered %d admitted %d shed %d", off, adm, shed)
	}
	// Telemetry counts every arrival; the Result only measured ones.
	if off < r.Offered {
		t.Fatalf("telemetry offered %d < measured offered %d", off, r.Offered)
	}
	if reg.Value("serve/completed") < r.Completed {
		t.Fatalf("telemetry completed %d < measured %d", reg.Value("serve/completed"), r.Completed)
	}
	tables := reg.Tables("")
	var sawQdepth, sawR0 bool
	for _, tb := range tables {
		if tb.ID == "serve/qdepth" {
			sawQdepth = true
		}
	}
	if reg.Value("r0/nic/completed") > 0 || reg.Value("r1/nic/completed") > 0 {
		sawR0 = true
	}
	if !sawQdepth {
		t.Fatal("no serve/qdepth trajectory table")
	}
	if !sawR0 {
		t.Fatal("no per-runtime r<i>/ harvest")
	}
}

// TestTelemetryOffDrawsIdentically pins that instrumentation never
// perturbs the simulation: the measured Result with telemetry on must
// equal the Result with it off.
func TestTelemetryOffDrawsIdentically(t *testing.T) {
	plain := Run(baseConfig(23))
	cfg := baseConfig(23)
	cfg.Opts.Telemetry = telemetry.New()
	instr := Run(cfg)
	if plain.Offered != instr.Offered || plain.Completed != instr.Completed ||
		plain.Op != instr.Op || plain.Wait != instr.Wait {
		t.Fatalf("telemetry perturbed the run:\nplain %+v\ninstr %+v", plain, instr)
	}
}
