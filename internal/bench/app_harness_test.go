package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arrival"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/result"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/verbs"
	"repro/internal/workload"
)

// pinned is every simulated number an application harness reports,
// flattened so one table covers RunHT, RunBT and RunDTX. Fields a
// protocol does not report stay zero.
type pinned struct {
	Ops        uint64
	Rate       float64 // MOPS, or MTPS for DTX
	P50, P99   int64   // ns; plain integers so the literals below carry no unit
	VerbMOPS   float64
	AvgRetries float64
	RetryN     uint64  // RetryDist.Total(): updates completed in the window
	RetryMean  float64 // RetryDist.Mean()
	SpecHit    float64
	AbortRate  float64
	FP         uint64 // Fingerprint
}

func (p pinned) String() string {
	return fmt.Sprintf("{Ops: %d, Rate: %v, P50: %d, P99: %d, VerbMOPS: %v, AvgRetries: %v, RetryN: %d, RetryMean: %v, SpecHit: %v, AbortRate: %v, FP: %#x}",
		p.Ops, p.Rate, p.P50, p.P99, p.VerbMOPS, p.AvgRetries, p.RetryN, p.RetryMean, p.SpecHit, p.AbortRate, p.FP)
}

func pinHT(cfg HTConfig) func(*testing.T) (pinned, string) {
	return func(*testing.T) (pinned, string) {
		r := RunHT(cfg)
		return pinned{Ops: r.Ops, Rate: r.MOPS, P50: int64(r.Median), P99: int64(r.P99), VerbMOPS: r.VerbMOPS,
			AvgRetries: r.AvgRetries, RetryN: r.RetryDist.Total(), RetryMean: r.RetryDist.Mean(), FP: r.Fingerprint}, r.String()
	}
}

func pinBT(cfg BTConfig) func(*testing.T) (pinned, string) {
	return func(t *testing.T) (pinned, string) {
		r := RunBT(cfg)
		if cfg.Variant.Speculative() != (r.SpecHit > 0) {
			t.Errorf("%v: spec-cache hit rate %v, want >0 exactly when the variant is speculative", cfg.Variant, r.SpecHit)
		}
		return pinned{Ops: r.Ops, Rate: r.MOPS, P50: int64(r.Median), P99: int64(r.P99), VerbMOPS: r.VerbMOPS,
			SpecHit: r.SpecHit, FP: r.Fingerprint}, r.String()
	}
}

func pinDTX(cfg DTXConfig) func(*testing.T) (pinned, string) {
	return func(*testing.T) (pinned, string) {
		r := RunDTX(cfg)
		return pinned{Ops: r.Txns, Rate: r.MTPS, P50: int64(r.Median), P99: int64(r.P99), AbortRate: r.AbortRate, FP: r.Fingerprint}, r.String()
	}
}

// TestAppHarnessPinned freezes the full result structs of everything
// that runs on runApp, on a table of small points, compared with ==
// against literals. The application rows were captured at commit
// aca7988, before the harnesses shared runApp; the micro and storm rows
// are described where they start. The harness is under every published
// closed-loop number, so a change that moves any of these has moved a
// figure. Each application row covers
// a branch the descriptors must preserve: blade prefixing and seed
// strides, pacing at the default and an explicit depth, the retry
// accounting, variant dispatch, the spec-cache bound, NVM blades and
// both OLTP mixes. AvgRetries is failed CAS attempts per counted update
// (RetryN): in the mixed-mix rows it alone was re-derived from
// aca7988's numbers. Every row's fingerprint, and the micro rows'
// whole-run doorbell and WR totals, were captured at 4e7205b, while the
// fingerprint still reached the grid through a pointer on the config
// (its value there was foldFingerprint(0, Fingerprint)) and the totals
// only through Collect's db/acquisitions-total, db/contended-total and
// core/wrs.
func TestAppHarnessPinned(t *testing.T) {
	const warmup, measure = 500 * sim.Microsecond, sim.Millisecond
	depth4 := core.Smart()
	depth4.Depth = 4
	rows := []struct {
		name string
		run  func(*testing.T) (pinned, string)
		want pinned
	}{
		{"ht/smart/write-heavy", pinHT(HTConfig{Opts: core.Smart(), ThreadsPerBlade: 4, Keys: 5_000,
			Theta: 0.9, Mix: workload.WriteHeavy, Seed: 3, Warmup: warmup, Measure: measure}),
			pinned{Ops: 2036, Rate: 2.036, P50: 12993, P99: 75458, VerbMOPS: 9.221, AvgRetries: 0.2523452157598499, RetryN: 1066, RetryMean: 0.2101313320825516, FP: 0x7ca4a21907d652cd}},
		{"ht/smart/write-heavy/2-compute-blades", pinHT(HTConfig{Opts: core.Smart(), ComputeBlades: 2, ThreadsPerBlade: 4, Keys: 5_000,
			Theta: 0.9, Mix: workload.WriteHeavy, Seed: 3, Warmup: warmup, Measure: measure}),
			pinned{Ops: 3522, Rate: 3.522, P50: 12143, P99: 138727, VerbMOPS: 17.815, AvgRetries: 0.6445578231292517, RetryN: 1764, RetryMean: 0.5204081632653061, FP: 0x82e9c6a473f3759d}},
		{"ht/race/read-heavy", pinHT(HTConfig{Opts: RACEBaseline(), ThreadsPerBlade: 8, Keys: 20_000,
			Theta: 0.99, Mix: workload.ReadHeavy, Seed: 7, Warmup: warmup, Measure: measure}),
			pinned{Ops: 8752, Rate: 8.752, P50: 7067, P99: 11349, VerbMOPS: 27.479, AvgRetries: 0.06136363636363636, RetryN: 440, RetryMean: 0.06136363636363636, FP: 0x494378ec17b7934a}},
		{"ht/smart/update-only", pinHT(HTConfig{Opts: core.Smart(), ThreadsPerBlade: 8, Keys: 20_000,
			Theta: 0.99, Mix: workload.UpdateOnly, Seed: 8, Warmup: warmup, Measure: measure}),
			pinned{Ops: 971, Rate: 0.971, P50: 43917, P99: 334310, VerbMOPS: 6.229, AvgRetries: 0.38105046343975285, RetryN: 971, RetryMean: 0.23789907312049433, FP: 0xe48e17e4b1a720ea}},
		{"ht/smart/target", pinHT(HTConfig{Opts: core.Smart(), ThreadsPerBlade: 8, Keys: 20_000,
			Theta: 0, Mix: workload.ReadOnly, Seed: 4, Warmup: warmup, Measure: measure, TargetMOPS: 1}),
			pinned{Ops: 1024, Rate: 1.024, P50: 11349, P99: 14876, VerbMOPS: 3.089, FP: 0xc63e95ed57b038c4}},
		{"ht/smart/target/depth-4", pinHT(HTConfig{Opts: depth4, ThreadsPerBlade: 8, Keys: 20_000,
			Theta: 0.99, Mix: workload.WriteHeavy, Seed: 4, Warmup: warmup, Measure: measure, TargetMOPS: 0.5}),
			pinned{Ops: 512, Rate: 0.512, P50: 10606, P99: 31312, VerbMOPS: 2.106, AvgRetries: 0.08764940239043825, RetryN: 251, RetryMean: 0.08764940239043825, FP: 0xfdc5249b6190aa73}},

		{"bt/sherman+", pinBT(BTConfig{Variant: ShermanPlus, ThreadsPerBlade: 4, Keys: 5_000,
			Theta: 0.9, Mix: workload.ReadHeavy, Seed: 5, Warmup: warmup, Measure: measure}),
			pinned{Ops: 5247, Rate: 5.247, P50: 3592, P99: 121169, VerbMOPS: 6.034, FP: 0x5fd06fc49abf236a}},
		{"bt/sherman+sl", pinBT(BTConfig{Variant: ShermanPlusSL, ThreadsPerBlade: 4, Keys: 5_000,
			Theta: 0.9, Mix: workload.ReadHeavy, Seed: 5, Warmup: warmup, Measure: measure}),
			pinned{Ops: 5295, Rate: 5.295, P50: 3592, P99: 113242, VerbMOPS: 6.092, SpecHit: 0.7043992796501157, FP: 0x789ea9570124e29e}},
		{"bt/smart", pinBT(BTConfig{Variant: SmartBT, ThreadsPerBlade: 4, Keys: 5_000,
			Theta: 0.9, Mix: workload.ReadHeavy, Seed: 5, Warmup: warmup, Measure: measure}),
			pinned{Ops: 5133, Rate: 5.133, P50: 3592, P99: 121169, VerbMOPS: 5.891, SpecHit: 0.6893862815884476, FP: 0x981c2bbe1df36ac3}},
		{"bt/smart/2-servers", pinBT(BTConfig{Variant: SmartBT, Servers: 2, ThreadsPerBlade: 4, Keys: 20_000,
			Theta: 0.99, Mix: workload.WriteHeavy, Seed: 9, Warmup: warmup, Measure: measure}),
			pinned{Ops: 435, Rate: 0.435, P50: 3592, P99: 334310, VerbMOPS: 1.133, SpecHit: 0.37675350701402804, FP: 0xeccdad21eb03fc78}},
		{"bt/sherman+sl/spec-cache-64", pinBT(BTConfig{Variant: ShermanPlusSL, ThreadsPerBlade: 8, Keys: 20_000,
			Theta: 0.99, Mix: workload.ReadOnly, Seed: 10, Warmup: warmup, Measure: measure, SpecCacheEntries: 64}),
			pinned{Ops: 17547, Rate: 17.547, P50: 3844, P99: 4113, VerbMOPS: 17.611, SpecHit: 0.1838265944143393, FP: 0xf865b298fb6e2d79}},

		{"dtx/smallbank/smart", pinDTX(DTXConfig{Workload: SmallBank, Threads: 4, Records: 2_000, Seed: 6,
			Warmup: warmup, Measure: measure}),
			pinned{Ops: 1022, Rate: 1.022, P50: 25560, P99: 105834, AbortRate: 0.25929549902152643, FP: 0xe4f3afb1bc23a80e}},
		{"dtx/smallbank/ford+", pinDTX(DTXConfig{Workload: SmallBank, FORDPlus: true, Threads: 4, Records: 2_000, Seed: 6,
			Warmup: warmup, Measure: measure}),
			pinned{Ops: 1484, Rate: 1.484, P50: 22325, P99: 53800, AbortRate: 0.25134770889487873, FP: 0xded638abf364157d}},
		{"dtx/tatp/smart", pinDTX(DTXConfig{Workload: TATP, Threads: 4, Records: 2_000, Seed: 6,
			Warmup: warmup, Measure: measure}),
			pinned{Ops: 2843, Rate: 2.843, P50: 8658, P99: 33504, AbortRate: 0.005979599015124868, FP: 0x5060366ae9e9ac70}},
		{"dtx/tatp/ford+", pinDTX(DTXConfig{Workload: TATP, FORDPlus: true, Threads: 8, Records: 10_000, Seed: 11,
			Warmup: warmup, Measure: measure}),
			pinned{Ops: 6801, Rate: 6.801, P50: 7067, P99: 23382, AbortRate: 0.00176444640494045, FP: 0x8717e0e379e542b0}},
		{"dtx/smallbank/smart/target", pinDTX(DTXConfig{Workload: SmallBank, Threads: 8, Records: 10_000, Seed: 12,
			Warmup: warmup, Measure: measure, TargetMTPS: 0.2}),
			pinned{Ops: 192, Rate: 0.192, P50: 23888, P99: 46991, AbortRate: 0.020833333333333332, FP: 0x999e09719fc73d27}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			got, str := row.run(t)
			if got != row.want {
				t.Errorf("result moved:\n got %v\nwant %v", got, row.want)
			}
			if got.Ops == 0 || got.Rate <= 0 {
				t.Errorf("no throughput measured: %v", got)
			}
			if got.P50 <= 0 || got.P99 < got.P50 {
				t.Errorf("latency stats inconsistent: p50=%v p99=%v", got.P50, got.P99)
			}
			if str == "" {
				t.Error("empty String()")
			}
		})
	}
	if SmallBank.String() != "SmallBank" || TATP.String() != "TATP" {
		t.Error("workload strings wrong")
	}

	// The §3.1 bench tool and the chaos storm, captured at commit
	// 55838db while each still built its own cluster and runtime. The
	// rows cover what their descriptors must carry through runApp: one
	// coroutine per thread, the seed stride, several memory blades, the
	// caller's own Δ (CMaxMean moves with it) and RNIC parameters, the
	// dyn-controller's place in the spawn order, batching, the injector
	// and the sampler.
	throttled := core.Baseline(core.PerThreadDoorbell)
	throttled.WorkReqThrottle = true
	throttled.UpdateDelta = 20 * sim.Microsecond
	batched := core.Baseline(core.PerThreadDoorbell)
	batched.Batching = verbs.Batching{Postlist: true, Coalesce: true}
	recovering := core.Baseline(core.PerThreadDoorbell)
	recovering.WRTimeout = 100 * sim.Microsecond
	recovering.MaxWRRetries = 3
	plan := fault.MustPlan([]fault.Rule{
		{Start: 300 * sim.Microsecond, End: 500 * sim.Microsecond, Kinds: fault.MaskRead, Prob: 1,
			Action: rnic.ActDelay, Factor: 6},
		{Start: 500 * sim.Microsecond, End: 600 * sim.Microsecond, Kinds: fault.MaskRead, Prob: 0.3,
			Action: rnic.ActBlackhole},
	})
	smallCache := rnic.Default()
	smallCache.WQECacheEntries = 8
	micro := []struct {
		name string
		cfg  MicroConfig
		want MicroResult
	}{
		{"micro/read", MicroConfig{Opts: core.Baseline(core.PerThreadDoorbell), Threads: 4, Batch: 4,
			Op: rnic.OpRead, Seed: 1, Warmup: 200 * sim.Microsecond, Measure: 500 * sim.Microsecond},
			MicroResult{MOPS: 4.128, DMABytesPerWR: 95.01550387596899, Completed: 2064,
				DBAcquisitions: 2896, DBContended: 0, WRs: 2880, Fingerprint: 0x66491c2239dace7d}},
		{"micro/write", MicroConfig{Opts: core.Baseline(core.PerThreadDoorbell), Threads: 4, Batch: 4,
			Op: rnic.OpWrite, Payload: 256, Params: &smallCache, Seed: 1, Warmup: 200 * sim.Microsecond, Measure: 500 * sim.Microsecond},
			MicroResult{MOPS: 3.9, DMABytesPerWR: 378.8410256410256, WQEMissRate: 0.2794871794871795, Completed: 1950,
				DBAcquisitions: 2723, DBContended: 0, WRs: 2718, Fingerprint: 0x3c3d21677a2eae6}},
		{"micro/read/throttled/2-memory-blades", MicroConfig{Opts: throttled, Threads: 8, Batch: 16, Blades: 2,
			Op: rnic.OpRead, Seed: 2, Warmup: 200 * sim.Microsecond, Measure: 500 * sim.Microsecond},
			MicroResult{MOPS: 17.544, DMABytesPerWR: 95.05015959872321, Completed: 8772, CMaxMean: 12,
				DBAcquisitions: 11929, DBContended: 1290, WRs: 11890, Fingerprint: 0x1292e553b9cd2f6d}},
		{"micro/write/throttled/2-memory-blades", MicroConfig{Opts: throttled, Threads: 8, Batch: 16, Blades: 2,
			Op: rnic.OpWrite, Seed: 2, Warmup: 200 * sim.Microsecond, Measure: 500 * sim.Microsecond},
			MicroResult{MOPS: 17.53, DMABytesPerWR: 95.05179691956646, Completed: 8765, CMaxMean: 12,
				DBAcquisitions: 11932, DBContended: 943, WRs: 11892, Fingerprint: 0x8aeb08c29a916d82}},
		{"micro/read/throttled/dynamic", MicroConfig{Opts: throttled, Threads: 8, Batch: 8,
			Op: rnic.OpRead, Seed: 2, Warmup: 200 * sim.Microsecond, Measure: 2 * sim.Millisecond,
			DynamicInterval: 300 * sim.Microsecond, DynamicMin: 2},
			MicroResult{MOPS: 8.645, DMABytesPerWR: 94.93221515326779, Completed: 17290, CMaxMean: 7,
				DBAcquisitions: 19907, DBContended: 0, WRs: 19875, Fingerprint: 0xc3f607c71d2f8c8}},
		{"micro/read/postlist+coalesce", MicroConfig{Opts: batched, Threads: 4, Batch: 8,
			Op: rnic.OpRead, Seed: 5, Warmup: 200 * sim.Microsecond, Measure: 500 * sim.Microsecond},
			MicroResult{MOPS: 8.642, DMABytesPerWR: 94.68849803286277, Completed: 4321,
				DBAcquisitions: 759, DBContended: 0, WRs: 6040, Fingerprint: 0xcfa8c9c5c11932ea}},
		{"micro/read/faults+sampler", MicroConfig{Opts: recovering, Threads: 4, Batch: 4,
			Op: rnic.OpRead, Seed: 6, Warmup: 200 * sim.Microsecond, Measure: 600 * sim.Microsecond,
			Faults: plan, SampleEvery: 100 * sim.Microsecond},
			MicroResult{MOPS: 2.3466666666666667, DMABytesPerWR: 94.86363636363636, Completed: 1408,
				DBAcquisitions: 2246, DBContended: 0, WRs: 2231, Fingerprint: 0x6e1a7622ac13ce42,
				Samples: []MicroSample{{100 * sim.Microsecond, 401}, {200 * sim.Microsecond, 816}, {300 * sim.Microsecond, 1232}, {400 * sim.Microsecond, 1312},
					{500 * sim.Microsecond, 1394}, {600 * sim.Microsecond, 1417}, {700 * sim.Microsecond, 1808}, {800 * sim.Microsecond, 2224}}}},
	}
	for _, row := range micro {
		t.Run(row.name, func(t *testing.T) {
			got := RunMicro(row.cfg)
			if !reflect.DeepEqual(got, row.want) {
				t.Errorf("result moved:\n got %#v\nwant %#v", got, row.want)
			}
			if got.Completed == 0 || got.MOPS <= 0 {
				t.Errorf("no throughput measured: %+v", got)
			}
		})
	}
	// Open-loop serving, captured at commit e468040 while RunServe still
	// kept its own op histogram beside runApp's: two runtimes offered
	// about 2.6x their capacity, so every admission branch runs (queues
	// fill, requests are shed) and requests admitted in warm-up complete
	// inside the window. The counters are the whole-run admission books.
	t.Run("serve/2-runtimes/overload", func(t *testing.T) {
		type summary struct{ Count, Mean, Min, P50, P99, P999, Max int64 } // ns: plain integers, as in pinned
		type servePin struct {
			Offered, Admitted, Shed, Completed uint64
			OfferedRate, Goodput, ShedFrac     float64
			Op, Txn, Wait, Service             summary
			QueueDepthPeak                     int
			Fingerprint                        uint64
			Counters                           [4]uint64 // serve/offered, admitted, shed, completed
		}
		pin := func(s stats.Summary) summary {
			return summary{int64(s.Count), int64(s.Mean), int64(s.Min), int64(s.P50), int64(s.P99), int64(s.P999), int64(s.Max)}
		}
		cfg := serveBaseConfig(29)
		cfg.Arrival = &arrival.Spec{Kind: arrival.KindPoisson, Rate: 24}
		reg := telemetry.New()
		cfg.Opts.Telemetry = reg
		r := RunServe(cfg)
		got := servePin{r.Offered, r.Admitted, r.Shed, r.Completed, r.OfferedRate, r.Goodput, r.ShedFrac,
			pin(r.Op), pin(r.Txn), pin(r.Wait), pin(r.Service), r.QueueDepthPeak, r.Fingerprint,
			[4]uint64{reg.Value("serve/offered"), reg.Value("serve/admitted"), reg.Value("serve/shed"), reg.Value("serve/completed")}}
		want := servePin{
			Offered: 12043, Admitted: 3938, Shed: 8105, Completed: 3395,
			OfferedRate: 24.086, Goodput: 6.79, ShedFrac: 0.6730050651830939,
			Op:             summary{Count: 3395, Mean: 69100, Min: 64828, P50: 70521, P99: 74887, P999: 74887, Max: 74887},
			Txn:            summary{Count: 658, Mean: 71829, Min: 68270, P50: 74887, P99: 74887, P999: 74887, Max: 74887},
			Wait:           summary{Count: 3395, Mean: 65049, Min: 61437, P50: 65908, P99: 68107, P999: 68107, Max: 68107},
			Service:        summary{Count: 3395, Mean: 4050, Min: 3379, P50: 3592, P99: 7425, P999: 7425, Max: 7425},
			QueueDepthPeak: 256,
			Fingerprint:    0x3127a5cfb7448542,
			Counters:       [4]uint64{14395, 5246, 9149, 4703},
		}
		if got != want {
			t.Errorf("result moved:\n got %#v\nwant %#v", got, want)
		}
		if got.Shed == 0 || got.Completed == 0 {
			t.Errorf("not an overload point: %#v", got)
		}
	})
	t.Run("chaos/storm", func(t *testing.T) {
		reg := telemetry.New()
		stormPlan := fault.MustPlan([]fault.Rule{{Start: 400 * sim.Microsecond, End: 800 * sim.Microsecond,
			Kinds: fault.MaskAtomic, Prob: 0.7, Action: rnic.ActFail, Status: rnic.StatusRemoteAccessErr}})
		if fp := runStorm(true, 3, reg, stormPlan, 1200*sim.Microsecond); fp != 0x9d029ab2d951a41c {
			t.Errorf("storm fingerprint %#x, want 0x9d029ab2d951a41c", fp)
		}
		tables := reg.Tables()
		var got bytes.Buffer
		for _, id := range []string{"counters", "storm/tmax-trajectory", "storm/gamma"} {
			result.Text(&got, []result.Table{*result.Find(tables, id)})
		}
		if got.String() != stormExport {
			t.Errorf("storm registry export moved:\n--- got\n%s\n--- want\n%s", got.String(), stormExport)
		}
	})
}

// stormExport is the chaos storm's registry export — every counter,
// then the t_max and γ trajectories — as result.Text renders it.
const stormExport = `
=== Telemetry counters (software Neo-Host totals) ===
                    counter   value
        storm/nic/completed    1936
   storm/nic/completed-read     917
  storm/nic/completed-write       0
    storm/nic/completed-cas    1019
    storm/nic/completed-faa       0
        storm/nic/dma-bytes  207889
       storm/nic/wqe-misses       0
       storm/nic/mtt-misses      79
       storm/nic/atomic-ops       0
        storm/nic/bytes-out   85958
         storm/nic/bytes-in   83182
         storm/nic/contexts       1
       storm/db/rings-total    2189
storm/db/acquisitions-total    2189
   storm/db/contended-total       0
  storm/db/hold-ticks-total  240790
               engine/parks    6974
               engine/wakes    6974
             storm/core/ops     913
             storm/core/wrs    2181
       storm/core/cas-total    1264
      storm/core/cas-failed     351
       storm/fault/injected     245
    storm/fault/retransmits       0
         storm/fault/errors     245
        storm/fault/retries       0
      storm/fault/abandoned     245
       storm/fault/timeouts       0

=== Backoff ceiling t_max over time (§4.3) ===
time (us)    t0    t1    t2     t3    t4     t5    t6     t7
        0  3.30  3.30  3.30   3.30  3.30   3.30  3.30   3.30
      800  6.60     -     -  13.20     -  13.20     -  13.20
     1000  3.30     -     -      -  3.30   6.60  3.30   6.60
      600     -  6.60  6.60   6.60  6.60   6.60  6.60   6.60
     1200     -  3.30  3.30   6.60     -   3.30     -   3.30

=== Observed CAS retry rate γ per window (§4.3) ===
time (us)      t0     t1      t2     t3     t4     t5      t6      t7
      200   0.000  0.000   0.037  0.036  0.000  0.036   0.000   0.120
      400   0.115  0.036   0.034  0.036  0.000  0.036   0.115   0.036
      800  10.500      -       -  8.500      -  1.500       -   2.333
     1000   0.077  0.125   0.167  0.182  0.036  0.074   0.077   0.083
     1200   0.036  0.071   0.000  0.000  0.000  0.036   0.000   0.000
      600       -  7.000  22.000  7.000  7.000  7.333  11.000  11.500
`

// TestAppHarnessTelemetryPrefix pins how the harness namespaces a
// run's counters: one compute blade harvests unprefixed names (what the
// fig14 telemetry document is made of), several harvest one "b<i>/"
// copy per blade and nothing unprefixed.
func TestAppHarnessTelemetryPrefix(t *testing.T) {
	harvest := func(computeBlades int) *telemetry.Registry {
		reg := telemetry.New()
		opts := core.Smart()
		opts.Telemetry = reg
		RunHT(HTConfig{Opts: opts, ComputeBlades: computeBlades, ThreadsPerBlade: 2, Keys: 2_000,
			Mix: workload.WriteHeavy, Seed: 3,
			Warmup: 100 * sim.Microsecond, Measure: 200 * sim.Microsecond})
		return reg
	}
	one, two := harvest(1), harvest(2)
	if one.Value("nic/completed") == 0 {
		t.Error("single compute blade: nic/completed not harvested unprefixed")
	}
	if one.Value("b0/nic/completed") != 0 {
		t.Error("single compute blade: counters are prefixed")
	}
	for _, name := range []string{"b0/nic/completed", "b1/nic/completed"} {
		if two.Value(name) == 0 {
			t.Errorf("two compute blades: %s not harvested", name)
		}
	}
	if two.Value("nic/completed") != 0 {
		t.Error("two compute blades: an unprefixed counter leaked")
	}
}

// TestAppHarnessOrigin pins runApp's window rule for an op whose
// latency starts before runApp calls it, as a served request's does at
// its arrival. The op sleeps work, then reports an origin lag before
// its call: the window admits it by that origin, not by the call, and
// records the latency from the origin to the return.
func TestAppHarnessOrigin(t *testing.T) {
	const warmup, measure = 100 * sim.Microsecond, 100 * sim.Microsecond
	const work, lag = 10 * sim.Microsecond, 12 * sim.Microsecond
	type call struct{ start, end sim.Time }
	var calls []call
	r := runApp(app{
		name:    "origin",
		cluster: cluster.Config{ComputeBlades: 1, MemoryBlades: 1, BladeCapacity: 1 << 16, Seed: 1},
		threads: 1,
		coros:   1,
		opts:    core.Baseline(core.PerThreadDoorbell),
		warmup:  warmup,
		measure: measure,
		load: func(*cluster.Cluster) newBladeFunc {
			return func(int, *core.Runtime) newCoroFunc {
				return func(int, int) opFunc {
					return func(c *core.Ctx, start sim.Time) (sim.Time, int) {
						c.Proc().Sleep(work)
						calls = append(calls, call{start, c.Now()})
						return start - lag, 1
					}
				}
			}
		},
	})

	var want, byStart uint64
	for _, c := range calls {
		if c.start-lag >= warmup && c.end <= warmup+measure {
			want++
		}
		if c.start >= warmup && c.start-lag < warmup {
			byStart++ // called after warm-up, originated before it
		}
	}
	if byStart == 0 {
		t.Fatalf("no op straddles warm-up between its origin and its call: %v", calls)
	}
	if want == 0 || r.ops != want || r.lat.Count != want || r.counts.Total() != want {
		t.Errorf("ops %d, latency samples %d, counts %d; want %d, the ops whose origin is past warm-up",
			r.ops, r.lat.Count, r.counts.Total(), want)
	}
	if r.lat.Min != work+lag || r.lat.Max != work+lag {
		t.Errorf("latency [%v, %v], want %v from origin to return", r.lat.Min, r.lat.Max, work+lag)
	}
}
