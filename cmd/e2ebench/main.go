// Command e2ebench is the repository's benchmark: four paired
// baseline/SMART workloads measured end to end (host wall with a
// set-up split, simulated fidelity) and layer by layer (a staged,
// traced replica of each SMART point plus a ladder of per-layer
// microdrivers). It measures every layer from outside, by timing calls
// into the layers' public functions; nothing in the simulator changes.
//
// The driver contract (BENCHMARK.json) is
//
//	e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and the last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	smoke    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: micro_read, ht_write, bt_read or dtx_smallbank")
	fs.Int64Var(&cfg.seed, "seed", 0, "offset added to the workload's built-in seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measuring time of the timed reps (at least 3 reps run regardless)")
	fs.IntVar(&cfg.trace, "trace", 0, "0: timed reps, end-to-end metrics; 1: traced replica + ladder, per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1: write the spans to this file as Chrome trace-event JSON")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny shapes and a single rep (what `go test` runs); numbers are meaningless")
	aa := fs.Bool("aa", false, "run every workload in two back-to-back sets of child processes and compare them against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *aa {
		return runAA(cfg.seconds, stdout, stderr)
	}
	var w *workloadDef
	for i, all := 0, workloads(); i < len(all); i++ {
		if all[i].name == cfg.workload {
			w = &all[i]
		}
	}
	if w == nil || fs.NArg() > 0 || (cfg.trace != 0 && cfg.trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need -workload (one of %s) and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}

	// One P per point: a sweep saturates the machine with one point per
	// worker, so a point effectively owns one P. A lone point on two Ps
	// bounces the proc baton between them, which is both slower (1.7×
	// here) and the largest source of run-to-run noise.
	runtime.GOMAXPROCS(1)

	sh := w.size
	if cfg.smoke {
		sh = sh.smoke()
	}
	acct := &account{log: stderr}
	var values map[string]float64
	defs := endToEnd()
	if cfg.trace == 1 {
		defs = perLayer()
		var err error
		if values, err = tracedRun(*w, sh, cfg, acct, stdout); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
	} else {
		values = timedRun(*w, sh, cfg, acct, stdout)
	}
	fmt.Fprintf(stdout, "%s: attempted %d, failed %d\n", w.name, acct.attempted, acct.failed)
	if err := writeResult(stdout, defs, values, acct); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if acct.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

// account is the failure ledger: every point execution, full or twin,
// harness or replica, is attempted once and may fail once.
type account struct {
	attempted, failed int
	log               io.Writer
}

func (a *account) fail(format string, args ...any) {
	a.failed++
	fmt.Fprintf(a.log, "FAILED "+format+"\n", args...)
}

// point executes one point with its wall time. A panic on the calling
// goroutine is recovered and counted, so the remaining points still run.
//
// Every point starts from a collected heap: its predecessor's garbage
// is freed off the clock, but the pages stay mapped (no FreeOSMemory),
// so it pays no first-touch faults for memory the process already
// holds. Left alone, whether the previous point's blade arrays are
// still uncollected when the next cluster is allocated is the collector's
// timing, and peak_rss_mb on ht_write read 607, 650–685 or 740–774 MB
// from run to run; collected, it reads 344–346 MB.
func (a *account) point(label string, seed int64, f func() pointResult) (r pointResult, wall time.Duration) {
	a.attempted++
	defer func() {
		if p := recover(); p != nil {
			a.fail("%s seed %d: panic: %v", label, seed, p)
		}
	}()
	runtime.GC()
	start := time.Now()
	r = f()
	return r, time.Since(start)
}

// twin is the zero-horizon configuration: everything a point builds,
// loads, spawns and tears down, with nothing simulated in between.
const twinWindow = sim.Nanosecond

// Rep i runs the pair on sub-seed i mod subSeeds, and the simulated
// metrics pool the subSeeds pairs every run is guaranteed to execute
// (the warm-up rep and three timed ones), so they do not depend on how
// many reps the host had time for. The stride is needed because the
// harnesses derive coroutine generator seeds as seed + thread·1009 +
// coro·13 + 1, so neighbouring seeds share most of their key streams.
const (
	subSeeds      = 4
	subSeedStride = 1_000_003
)

// timedRun is the -trace 0 run: one discarded warm-up rep (the two full
// points only), then timed reps for cfg.seconds (never fewer than 3).
// One rep is both points through the harness plus their zero-horizon
// twins.
func timedRun(w workloadDef, sh shape, cfg config, acct *account, out io.Writer) map[string]float64 {
	var first [subSeeds][2]pointResult // simulated fields per sub-seed, which every later rep on it must repeat
	var wall, setup, alloc []float64

	rep := func(i int, timed bool) time.Duration {
		repStart := time.Now()
		sub := i % subSeeds
		seed := w.seed + cfg.seed + int64(sub)*subSeedStride
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var fullWall time.Duration
		for side, label := range []string{"baseline", "smart"} {
			label = w.name + "/" + label
			r, d := acct.point(label, seed, func() pointResult {
				return w.point(side == 1, sh, seed, sh.warmup, sh.measure)
			})
			fullWall += d
			if r.Ops == 0 {
				acct.fail("%s seed %d: completed zero ops", label, seed)
			}
			if i < subSeeds {
				first[sub][side] = r
			} else if r != first[sub][side] {
				acct.fail("%s seed %d: simulated fields differ between reps: %+v vs %+v", label, seed, first[sub][side], r)
			}
		}
		runtime.ReadMemStats(&m1)
		if !timed {
			return time.Since(repStart) // the warm-up rep's twins would be discarded too
		}
		var twinWall time.Duration
		for t := 0; t < sh.twins; t++ {
			for side, label := range []string{"baseline", "smart"} {
				label = w.name + "/" + label + "-twin"
				r, d := acct.point(label, seed, func() pointResult {
					return w.point(side == 1, sh, seed, twinWindow, twinWindow)
				})
				twinWall += d
				if r.Ops != 0 {
					acct.fail("%s seed %d: zero-horizon twin completed %d ops", label, seed, r.Ops)
				}
			}
		}
		wall = append(wall, fullWall.Seconds())
		setup = append(setup, twinWall.Seconds()/float64(sh.twins))
		alloc = append(alloc, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		return time.Since(repStart)
	}

	pooled := 1
	last := rep(0, cfg.smoke) // the smoke configuration times its only rep
	if !cfg.smoke {
		pooled = subSeeds
		start := time.Now()
		for i := 1; i <= 3 || time.Since(start)+last <= time.Duration(cfg.seconds*float64(time.Second)); i++ {
			last = rep(i, true)
		}
	}
	// SMART throughput and op counts are means over the pooled sub-seeds.
	// The baseline is its lowest: the contended ht_write baseline is
	// bistable across seeds (collapsed, 0.5–0.7 Mops/s on 11 seeds of 16,
	// or not, 1.0–1.3), so its mean over four seeds jumps with how many
	// of each kind a run drew, while its minimum is the collapsed state in
	// 99 runs of 100. On the other workloads the two differ by under 1 %.
	var smart, ops float64
	base := first[0][0].Mops
	for _, pair := range first[:pooled] {
		base, smart = min(base, pair[0].Mops), smart+pair[1].Mops/float64(pooled)
		ops += float64(pair[0].Ops+pair[1].Ops) / float64(pooled)
	}
	// Simulated ops per host second divides the pooled op count, not
	// each rep's own, by each rep's wall: which sub-seed a rep happened
	// to run then moves the metric only through its wall time.
	simops := make([]float64, len(wall))
	for i, ws := range wall {
		simops[i] = ops / ws
	}
	gain := 0.0
	if base > 0 {
		gain = smart / base
	}
	if gain <= 1 && !cfg.smoke { // the smoke shapes are too small for SMART to win
		acct.fail("%s seed %d: sim_gain %.3f: SMART is not faster than the baseline", w.name, w.seed+cfg.seed, gain)
	}
	return map[string]float64{
		"wall_s":            report(out, "wall_s", "s", "host", wall),
		"setup_s":           report(out, "setup_s", "s", "host", setup),
		"host_simops_per_s": report(out, "host_simops_per_s", "1/s", "host", simops),
		"alloc_mb":          report(out, "alloc_mb", "MB", "host", alloc),
		"peak_rss_mb":       report(out, "peak_rss_mb", "MB", "host", []float64{peakRSSMB()}),
		"sim_mops":          report(out, "sim_mops", "Mops/s", "simulated", []float64{smart}),
		"sim_gain":          report(out, "sim_gain", "ratio", "simulated", []float64{gain}),
	}
}

// report prints one metric as median, quartiles and sample count, and
// returns the median.
func report(out io.Writer, name, unit, clock string, samples []float64) float64 {
	q1, med, q3 := quartiles(samples)
	fmt.Fprintf(out, "%-28s %14.6g %-7s [q1 %.6g, q3 %.6g] n=%d (%s)\n", name, med, unit, q1, q3, len(samples), clock)
	return med
}

// quartiles returns the three cut points of sorted samples exactly as
// Python's statistics.quantiles(samples, n=4) does (the driver's rule),
// and the single value itself when there is only one.
func quartiles(samples []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1e3
		}
	}
	return 0
}

// tracedRun is the -trace 1 run. Rounds of {harness SMART point,
// untraced replica, traced replica} fill the first 60% of cfg.seconds
// (never fewer than 3 rounds); the fastest wall of each kind gives the
// harness-vs-replica gap and the tracing overhead. The last traced
// replica supplies the spans; the counts and the harness point's
// simulated latencies are the first round's, which every later round
// must repeat exactly; the ladder gives the per-layer host costs.
func tracedRun(w workloadDef, sh shape, cfg config, acct *account, out io.Writer) (map[string]float64, error) {
	seed := w.seed + cfg.seed
	var harness pointResult
	var res replicaResult
	var tr *tracer
	var harnessWall, plainWall, tracedWall time.Duration
	var m0, m1 runtime.MemStats
	keepMin := func(best *time.Duration, d time.Duration) {
		if *best == 0 || d < *best {
			*best = d
		}
	}
	rounds, budget := 0, time.Duration(0.6*cfg.seconds*float64(time.Second))
	for start, last := time.Now(), time.Duration(0); rounds < 3 || time.Since(start)+last <= budget; rounds++ {
		if cfg.smoke && rounds > 0 {
			break
		}
		roundStart := time.Now()
		hp, d := acct.point(w.name+"/smart", seed, func() pointResult {
			runtime.ReadMemStats(&m0)
			defer runtime.ReadMemStats(&m1)
			return w.point(true, sh, seed, sh.warmup, sh.measure)
		})
		keepMin(&harnessWall, d)
		if rounds == 0 {
			harness = hp
		} else if hp != harness {
			acct.fail("%s seed %d: simulated fields differ between rounds: %+v vs %+v", w.name+"/smart", seed, harness, hp)
		}

		for _, traced := range []bool{false, true} {
			r := &replica{sh: sh, seed: seed}
			best := &plainWall
			if traced {
				tr = newTracer()
				r.tr, best = tr, &tracedWall
			}
			var got replicaResult
			_, d := acct.point(w.name+"/smart-replica", seed, func() pointResult {
				got = runReplica(w, r)
				return pointResult{Ops: got.ops}
			})
			keepMin(best, d)
			if got.missing > 0 {
				acct.fail("%s seed %d: %d of %d sampled preloaded keys are gone after the run", w.name, seed, got.missing, got.checked)
			}
			// Every replica field is a simulated count, so every execution,
			// traced or not, must repeat the first one exactly.
			if rounds == 0 && !traced {
				res = got
			} else if got != res {
				acct.fail("%s seed %d: replica counts differ between executions: %+v vs %+v", w.name, seed, res, got)
			}
		}
		last = time.Since(roundStart)
	}
	if harness.Ops == 0 || tr == nil {
		return nil, fmt.Errorf("%s: the SMART point did not complete", w.name)
	}

	l := ladder{div: 1, trials: 5}
	if cfg.smoke {
		l = ladder{div: 100, trials: 1}
	}
	rungs := append(l.frameworkRungs(), l.appRungs(w.app)...)
	fmt.Fprintf(out, "%-28s %10s %10s %8s %10s\n", "ladder rung", "ns/op", "events/op", "wrs/op", "allocs/op")
	byName := map[string]rung{}
	for _, r := range rungs {
		byName[r.name] = r
		fmt.Fprintf(out, "%-28s %10.1f %10.2f %8.2f %10.3f\n", r.name, r.ns, r.events, r.wrs, r.allocs)
	}

	sec := func(name string) float64 { return tr.total(name).Seconds() }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	lat := func(app string, t sim.Time) float64 { // µs, on the workload that runs app
		if w.app != app {
			return 0
		}
		return float64(t) / float64(sim.Microsecond)
	}
	match := 0.0
	if res.ops == harness.Ops {
		match = 1
	}
	v := map[string]float64{
		"sim.events":           float64(res.events),
		"sim.parks_per_event":  ratio(float64(res.parks), float64(res.events)),
		"sim.run_ns_per_event": ratio(float64(tr.total("sim.run").Nanoseconds()), float64(res.events)),
		"sim.schedule_ns":      byName["kernel schedule"].ns,
		"sim.parkwake_ns":      byName["kernel park-wake"].ns,
		"sim.handoff_ns":       byName["kernel mutex-handoff"].ns,
		"sim.stop_s":           sec("sim.stop"),

		"rnic.wr_ns":            byName["rnic Submit"].ns,
		"rnic.events_per_wr":    byName["rnic Submit"].events,
		"rnic.completed":        float64(res.nic.Completed),
		"rnic.wqe_miss_rate":    ratio(float64(res.nic.WQEMisses), float64(res.nic.Completed)),
		"rnic.dma_bytes_per_wr": ratio(float64(res.nic.DMABytes), float64(res.nic.Completed)),
		"rnic.utilization":      res.utilization,

		"verbs.post_wait_ns":      byName["verbs PostSend+WaitN"].ns,
		"verbs.postlist_ns":       byName["kernel doorbell"].ns,
		"verbs.db_contended_frac": res.dbContended,

		"core.runtime_new_s":   sec("core.runtime_new"),
		"core.spawn_s":         sec("core.spawn"),
		"core.round_ns":        byName["core ReadSync"].ns,
		"core.cas_round_ns":    byName["core BackoffCASSync"].ns,
		"core.wrs_per_op":      ratio(float64(res.stats.WRs), float64(res.stats.Ops)),
		"core.cas_failed_frac": ratio(float64(res.stats.CASFailed), float64(res.stats.CASTotal)),
		"core.cmax_mean":       res.cmaxMean,

		"workload.gen_build_s": sec("workload.gen_build"),
		"workload.next_ns":     byName["workload YCSB.Next"].ns,
		"cluster.build_s":      sec("cluster.build"),

		"race.load_s":         sec("race.load"),
		"race.lookup_ns":      byName["race Lookup"].ns,
		"race.update_ns":      byName["race Update"].ns,
		"race.wrs_per_lookup": byName["race Lookup"].wrs,
		"race.wrs_per_update": byName["race Update"].wrs,
		"sherman.load_s":      sec("sherman.load"),
		"sherman.lookup_ns":   byName["sherman LookupSpec"].ns,
		"sherman.wrs_per_op":  byName["sherman LookupSpec"].wrs,
		"ford.load_s":         sec("ford.load"),
		"ford.txn_ns":         byName["ford SmallBank.RunOne"].ns,
		"ford.wrs_per_txn":    byName["ford SmallBank.RunOne"].wrs,
		// The harness point's own statistics; the rates are 0 off their
		// workload by construction, the latencies are gated by lat.
		"race.retries_per_update": harness.Retries,
		"race.op_p50_us":          lat("race", harness.P50),
		"race.op_p99_us":          lat("race", harness.P99),
		"sherman.spec_hit_rate":   harness.SpecHit,
		"sherman.op_p50_us":       lat("sherman", harness.P50),
		"sherman.op_p99_us":       lat("sherman", harness.P99),
		"ford.abort_rate":         harness.AbortRate,
		"ford.txn_p50_us":         lat("ford", harness.P50),
		"ford.txn_p99_us":         lat("ford", harness.P99),

		"bench.harness_gap_frac":      ratio(float64(harnessWall-plainWall), float64(harnessWall)),
		"bench.replica_ops_match":     match,
		"sweep.dispatch_us_per_point": byName["sweep dispatch"].ns / 1e3,

		"host.gc_cycles":         float64(m1.NumGC - m0.NumGC),
		"host.gc_pause_ms":       float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		"host.mallocs_per_simop": ratio(float64(m1.Mallocs-m0.Mallocs), float64(harness.Ops)),
		"trace.overhead_frac":    ratio(float64(tracedWall-plainWall), float64(plainWall)),
	}
	fmt.Fprintf(out, "harness %.4fs, replica %.4fs untraced / %.4fs traced (fastest of %d); latency samples n=%d; %d preloaded keys re-read\n",
		harnessWall.Seconds(), plainWall.Seconds(), tracedWall.Seconds(), rounds, harness.Ops, res.checked)
	for _, d := range perLayer() {
		fmt.Fprintf(out, "%-28s %14.6g %s\n", d.name, v[d.name], d.unit)
	}

	if cfg.traceOut != "" {
		f, err := os.Create(cfg.traceOut)
		if err != nil {
			return nil, err
		}
		if err := tr.writeChrome(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// writeResult prints the driver's result line: one JSON object, last
// on standard output, holding every declared metric of this run kind.
func writeResult(out io.Writer, defs []metricDef, values map[string]float64, acct *account) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{acct.failed == 0, acct.attempted, acct.failed, map[string]metric{}}
	for _, d := range defs {
		val, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was declared but not measured", d.name)
		}
		result.Metrics[d.name] = metric{val, d.unit}
	}
	return json.NewEncoder(out).Encode(result)
}
