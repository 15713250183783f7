package bench

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/result"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// serveBaseConfig is the serving tests' small two-runtime point.
func serveBaseConfig(seed int64) ServeConfig {
	return ServeConfig{
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
	a := RunServe(serveBaseConfig(42))
	b := RunServe(serveBaseConfig(42))
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

	c := RunServe(serveBaseConfig(43))
	if c.Offered == a.Offered && c.Op == a.Op {
		t.Fatalf("different seed produced an identical run")
	}
}

// TestBackpressureShedsNotBuffers drives the pipeline far past
// capacity and checks the bounded queue's contract: load is shed at
// admission, the queue never grows past its bound, and the books
// balance (offered = admitted + shed).
func TestBackpressureShedsNotBuffers(t *testing.T) {
	cfg := serveBaseConfig(7)
	cfg.Runtimes = 1
	cfg.ThreadsPerRuntime = 2
	cfg.Arrival = &arrival.Spec{Kind: arrival.KindPoisson, Rate: 64} // way past capacity
	r := RunServe(cfg)
	if r.Shed == 0 {
		t.Fatalf("overload shed nothing: %+v", r)
	}
	if r.Offered != r.Admitted+r.Shed {
		t.Fatalf("books don't balance: offered %d != admitted %d + shed %d",
			r.Offered, r.Admitted, r.Shed)
	}
	if depth := serveQueueSlots * cfg.ThreadsPerRuntime; r.QueueDepthPeak > depth {
		t.Fatalf("queue grew past its bound: peak %d > depth %d",
			r.QueueDepthPeak, depth)
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
	cfg := serveBaseConfig(11)
	cfg.Runtimes = 1
	cfg.ThreadsPerRuntime = 2
	cfg.Arrival = &arrival.Spec{Kind: arrival.KindPoisson, Rate: 32}
	r := RunServe(cfg)
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
	cfg := serveBaseConfig(13)
	cfg.Arrival = &arrival.Spec{Kind: arrival.KindPoisson, Rate: 0.5}
	r := RunServe(cfg)
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
// and completion counters cover the whole run (warmup included) and
// reconcile, the qdepth trajectory has one b<i> column per runtime, and
// per-runtime harvests follow runApp's one prefix rule: "b<i>/" with
// several runtimes, none with one.
func TestTelemetryCounters(t *testing.T) {
	cfg := serveBaseConfig(19)
	reg := telemetry.New()
	cfg.Opts.Telemetry = reg
	r := RunServe(cfg)
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
	// Completions are on the same whole-run basis: whatever was admitted
	// but not completed was still queued or in service at the horizon.
	done := reg.Value("serve/completed")
	if done < r.Completed || done > adm {
		t.Fatalf("telemetry completed %d outside [measured %d, admitted %d]", done, r.Completed, adm)
	}
	inFlight := uint64(cfg.Runtimes*cfg.ThreadsPerRuntime*serveCoros + cfg.Runtimes*r.QueueDepthPeak)
	if adm-done > inFlight {
		t.Fatalf("admitted %d - completed %d = %d exceeds what workers and queues hold (%d)", adm, done, adm-done, inFlight)
	}
	tables := reg.Tables("")
	var sawQdepth, sawB0 bool
	for _, tb := range tables {
		if tb.ID == "serve/qdepth" {
			sawQdepth = true
			checkQdepthColumns(t, tb, cfg.Runtimes)
		}
	}
	if reg.Value("b0/nic/completed") > 0 || reg.Value("b1/nic/completed") > 0 {
		sawB0 = true
	}
	if !sawQdepth {
		t.Fatal("no serve/qdepth trajectory table")
	}
	if !sawB0 {
		t.Fatal("no per-runtime b<i>/ harvest")
	}

	// One runtime: its harvest is unprefixed, as every runApp point's.
	cfg = serveBaseConfig(19)
	cfg.Runtimes = 1
	one := telemetry.New()
	cfg.Opts.Telemetry = one
	RunServe(cfg)
	if one.Value("nic/completed") == 0 {
		t.Error("one runtime: nic/completed not harvested unprefixed")
	}
	var sawDoorbells bool
	for _, tb := range one.Tables("") {
		switch tb.ID {
		case "doorbells":
			sawDoorbells = true
		case "serve/qdepth":
			checkQdepthColumns(t, tb, 1)
		}
	}
	if !sawDoorbells {
		t.Error("one runtime: no unprefixed doorbells table")
	}
}

// checkQdepthColumns requires serve/qdepth to have exactly one column
// per runtime, named b<i> like that runtime's harvest prefix.
func checkQdepthColumns(t *testing.T, tb result.Table, runtimes int) {
	t.Helper()
	var got []string
	for _, s := range tb.Series {
		got = append(got, s.Name)
	}
	var want []string
	for i := range runtimes {
		want = append(want, fmt.Sprintf("b%d", i))
	}
	if !slices.Equal(got, want) {
		t.Errorf("serve/qdepth columns %v, want %v", got, want)
	}
}

// TestTelemetryOffDrawsIdentically pins that instrumentation never
// perturbs the simulation: the measured Result with telemetry on must
// equal the Result with it off.
func TestTelemetryOffDrawsIdentically(t *testing.T) {
	plain := RunServe(serveBaseConfig(23))
	cfg := serveBaseConfig(23)
	cfg.Opts.Telemetry = telemetry.New()
	instr := RunServe(cfg)
	if plain.Offered != instr.Offered || plain.Completed != instr.Completed ||
		plain.Op != instr.Op || plain.Wait != instr.Wait {
		t.Fatalf("telemetry perturbed the run:\nplain %+v\ninstr %+v", plain, instr)
	}
}
