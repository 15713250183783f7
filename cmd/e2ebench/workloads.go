package main

import (
	"repro/internal/cluster"
	"repro/internal/sim"
)

// Fixed constants of the workload shapes (the paper's §6 settings).
const (
	zipfTheta    = 0.99
	microBatch   = 8
	microPayload = 8
	microRegion  = 16 << 20 // RunMicro's default target region
)

// shape is the size of a workload's two points. The baseline and the
// SMART point always share one shape and one seed; only the framework
// configuration differs between them.
type shape struct {
	threads         int
	keys            uint64 // keys (ht, bt) or accounts (dtx); unused on micro
	warmup, measure sim.Time

	// twins is how many zero-horizon pairs one rep runs. A pair that
	// costs tens of milliseconds is mostly allocator and GC phase, so
	// the cheap workloads average several pairs per rep.
	twins int
}

// smoke is the configuration main_test.go runs inside `go test`.
func (s shape) smoke() shape {
	s.threads = 8
	if s.keys > 0 {
		s.keys = 20_000
	}
	s.warmup, s.measure = 200*sim.Microsecond, 200*sim.Microsecond
	s.twins = 1
	return s
}

// workloadDef is one paired baseline/SMART measurement.
type workloadDef struct {
	name string
	why  string
	app  string // layer whose load/op metrics this workload fills ("" on micro_read)
	seed int64  // built-in seed; -seed N adds N
	size shape

	point   pointFunc                                  // the harness (points.go)
	cluster func(sh shape, seed int64) cluster.Config  // the replica's cluster (replica.go)
	stage   func(cl *cluster.Cluster, r *replica) *app // the replica's preload + op bodies
}

// workloads returns the four workloads in report order. Names are
// fixed: later issues cite them.
//
// micro_read and dtx_smallbank are the sizes ISSUE 11 names. ht_write
// and bt_read keep its windows but halve the keys (100 K, not 200 K):
// at 200 K a rep costs 14 s, and a warm-up rep plus the minimum of three
// timed ones would overrun the driver's time cap (4 + 22×4 runs in 57
// minutes). ζ(n, θ) is linear in n, so generator construction dominates
// their set-up exactly as it does at full size; see README.md.
func workloads() []workloadDef {
	const ms = sim.Millisecond
	return []workloadDef{
		{
			name: "micro_read", seed: 11,
			why:   "framework layers only (sim, rnic, verbs, core): no app protocol, generator or preload, so set-up is ~0 and wall is event execution; baseline is doorbell-contended",
			size:  shape{threads: 96, warmup: 1 * ms, measure: 9 * ms, twins: 4},
			point: microPoint, cluster: microCluster, stage: stageMicro,
		},
		{
			name: "ht_write", app: "race", seed: 22,
			why:   "RACE hash table, 50% updates at zipf 0.99: the only workload where failed CAS and backoff are busy; 384 Zipf generators + LoadDirect preload make set-up most of the wall",
			size:  shape{threads: 48, keys: 100_000, warmup: 5 * ms, measure: 4 * ms, twins: 1},
			point: htPoint, cluster: htCluster, stage: stageHT,
		},
		{
			name: "bt_read", app: "sherman", seed: 33,
			why:   "Sherman B+tree, read-only with the speculative-lookup cache: pure READ path, same generator set-up as ht_write but a cheap BulkLoad, so preload work must not show here",
			size:  shape{threads: 48, keys: 100_000, warmup: 5 * ms, measure: 4 * ms, twins: 1},
			point: btPoint, cluster: btCluster, stage: stageBT,
		},
		{
			name: "dtx_smallbank", app: "ford", seed: 31,
			why:   "FORD SmallBank on NVM blades: multi-WR transactions, lock CAS and WRITE latency; no Zipf generator and a 0.1 s load, so generator and preload work predict no change",
			size:  shape{threads: 48, keys: 100_000, warmup: 5 * ms, measure: 4 * ms, twins: 2},
			point: dtxPoint, cluster: dtxCluster, stage: stageDTX,
		},
	}
}

// metricDef declares one reported metric. BENCHMARK.json carries the
// same list; main_test.go fails when the two disagree.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
	exact              bool    // simulated or counted: repeats bit for bit for one seed, which -aa checks
}

// endToEnd lists the metrics of a -trace 0 run. wall_s, setup_s,
// host_simops_per_s, alloc_mb and peak_rss_mb are host numbers (what
// the simulator costs); sim_mops and sim_gain are simulated numbers
// (what the modelled cluster does) and repeat exactly per seed.
func endToEnd() []metricDef {
	return []metricDef{
		{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
		{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
		{name: "host_simops_per_s", unit: "1/s", better: "higher", bound: 0.25},
		{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.03},
		{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.05},
		{name: "sim_mops", unit: "Mops/s", better: "higher", bound: 0.06, exact: true},
		{name: "sim_gain", unit: "ratio", better: "higher", bound: 0.25, exact: true},
	}
}

// perLayer lists the metrics of a -trace 1 run, grouped by layer (the
// repo's packages). [S] = span of the staged replica, [C] = count read
// at a replica boundary, [L] = ladder rung, [H] = read off an untraced
// harness point. The [C] counts and the simulated [H] statistics are
// exact.
func perLayer() []metricDef {
	return []metricDef{
		// sim
		{name: "sim.events", unit: "count", better: "lower", exact: true},            // [C]
		{name: "sim.parks_per_event", unit: "ratio", better: "lower", exact: true},   // [C]
		{name: "sim.run_ns_per_event", unit: "ns", better: "lower"},                  // [S]
		{name: "sim.schedule_ns", unit: "ns", better: "lower"},                       // [L]
		{name: "sim.parkwake_ns", unit: "ns", better: "lower"},                       // [L]
		{name: "sim.handoff_ns", unit: "ns", better: "lower"},                        // [L]
		{name: "sim.stop_s", unit: "s", better: "lower"},                             // [S]
		{name: "rnic.wr_ns", unit: "ns", better: "lower"},                            // [L]
		{name: "rnic.events_per_wr", unit: "count", better: "lower"},                 // [L]
		{name: "rnic.completed", unit: "count", better: "higher", exact: true},       // [C]
		{name: "rnic.wqe_miss_rate", unit: "ratio", better: "lower", exact: true},    // [C]
		{name: "rnic.dma_bytes_per_wr", unit: "bytes", better: "lower", exact: true}, // [C]
		{name: "rnic.utilization", unit: "ratio", better: "higher", exact: true},     // [C]
		// verbs
		{name: "verbs.post_wait_ns", unit: "ns", better: "lower"},                      // [L]
		{name: "verbs.postlist_ns", unit: "ns", better: "lower"},                       // [L]
		{name: "verbs.db_contended_frac", unit: "ratio", better: "lower", exact: true}, // [C]
		// core
		{name: "core.runtime_new_s", unit: "s", better: "lower"},                    // [S]
		{name: "core.spawn_s", unit: "s", better: "lower"},                          // [S]
		{name: "core.round_ns", unit: "ns", better: "lower"},                        // [L]
		{name: "core.cas_round_ns", unit: "ns", better: "lower"},                    // [L]
		{name: "core.wrs_per_op", unit: "count", better: "lower", exact: true},      // [C]
		{name: "core.cas_failed_frac", unit: "ratio", better: "lower", exact: true}, // [C]
		{name: "core.cmax_mean", unit: "count", better: "higher", exact: true},      // [C]
		// workload
		{name: "workload.gen_build_s", unit: "s", better: "lower"}, // [S]
		{name: "workload.next_ns", unit: "ns", better: "lower"},    // [L]
		// cluster (+ blade)
		{name: "cluster.build_s", unit: "s", better: "lower"}, // [S]
		// race (ht_write only)
		{name: "race.load_s", unit: "s", better: "lower"},                              // [S]
		{name: "race.lookup_ns", unit: "ns", better: "lower"},                          // [L]
		{name: "race.update_ns", unit: "ns", better: "lower"},                          // [L]
		{name: "race.wrs_per_lookup", unit: "count", better: "lower", exact: true},     // [C]
		{name: "race.wrs_per_update", unit: "count", better: "lower", exact: true},     // [C]
		{name: "race.retries_per_update", unit: "count", better: "lower", exact: true}, // [H]
		{name: "race.op_p50_us", unit: "us", better: "lower", exact: true},             // [H]
		{name: "race.op_p99_us", unit: "us", better: "lower", exact: true},             // [H]
		// sherman (bt_read only)
		{name: "sherman.load_s", unit: "s", better: "lower"},                          // [S]
		{name: "sherman.lookup_ns", unit: "ns", better: "lower"},                      // [L]
		{name: "sherman.wrs_per_op", unit: "count", better: "lower", exact: true},     // [C]
		{name: "sherman.spec_hit_rate", unit: "ratio", better: "higher", exact: true}, // [H]
		{name: "sherman.op_p50_us", unit: "us", better: "lower", exact: true},         // [H]
		{name: "sherman.op_p99_us", unit: "us", better: "lower", exact: true},         // [H]
		// ford (dtx_smallbank only)
		{name: "ford.load_s", unit: "s", better: "lower"},                       // [S]
		{name: "ford.txn_ns", unit: "ns", better: "lower"},                      // [L]
		{name: "ford.wrs_per_txn", unit: "count", better: "lower", exact: true}, // [C]
		{name: "ford.abort_rate", unit: "ratio", better: "lower", exact: true},  // [H]
		{name: "ford.txn_p50_us", unit: "us", better: "lower", exact: true},     // [H]
		{name: "ford.txn_p99_us", unit: "us", better: "lower", exact: true},     // [H]
		// bench (the harness itself)
		{name: "bench.harness_gap_frac", unit: "ratio", better: "lower"},                // harness vs replica wall
		{name: "bench.replica_ops_match", unit: "count", better: "higher", exact: true}, // 1 = same simulation
		// sweep
		{name: "sweep.dispatch_us_per_point", unit: "us", better: "lower"}, // [L]
		// host (Go runtime)
		{name: "host.gc_cycles", unit: "count", better: "lower"},         // [H]
		{name: "host.gc_pause_ms", unit: "ms", better: "lower"},          // [H]
		{name: "host.mallocs_per_simop", unit: "count", better: "lower"}, // [H]
		// trace
		{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	}
}
