// Command smartbench regenerates the SMART paper's tables and figures
// on the simulated cluster.
//
// Usage:
//
//	smartbench -list                       # show available experiments
//	smartbench -exp fig3                   # run one experiment (full sweep)
//	smartbench -exp fig7,fig8 -quick       # sparse sweeps for a fast pass
//	smartbench -exp all -quick -check \
//	    -format json -out bench_quick.json # machine-readable + shape gate
//	smartbench -exp fig3 -quick \
//	    -telemetry telem.json              # + the run's counters to a file
//	smartbench -exp fig13 -quick -trace 64 # dump the last 64 telemetry events
//	smartbench -exp chaos -quick -check \
//	    -faults default -seed 7            # fault injection + recovery gate
//	smartbench -exp all -parallel 4 \
//	    -stats bench_stats.json            # sweep points on 4 workers
//	smartbench -exp all -quick -dryrun     # point counts; nothing runs
//
// Every flag reaches a simulation by one route: run parses the flags
// into a single bench.Env (sweeper, seed, quick, the three templates
// below, and — for an instrumented experiment under -telemetry or
// -trace — a telemetry registry), and every selected experiment goes
// through the same loop calling e.Run(env) once.
// Nothing is installed in package state, so concurrent run calls in
// one process do not see each other's flags.
//
// -parallel N runs each experiment's sweep points on N workers
// (default 0 = GOMAXPROCS; 1 = sequential). Results merge in point
// order, so every document — text, JSON, telemetry — is byte-identical
// at any worker count; only the progress stream's timing lines differ.
//
// -check judges the shape checks of internal/bench after each selected
// experiment's run (its telemetry checks too, when a registry filled
// one) and prints one line per check on the progress stream: "[check
// NAME margin +12.3%]", the check's smallest signed relative distance
// to failing over its comparisons, or "[check NAME FAIL]". Margins are
// deterministic, so these lines are the same at any worker count. After
// the run each failing check gets a FAIL line with its detail on
// stderr, and the exit status is 1.
//
// -stats writes the versioned perf record (internal/perf.Record, the
// BENCH_<n>.json schema): worker count, per-experiment point counts,
// wall-clock and points/sec, plus kernel hot-path stats (events/sec
// and allocs/event). It is kept out of the result documents on
// purpose, to preserve their byte-identity across worker counts.
// -perf-baseline compares the run's record against a checked-in one
// and exits 1 when sweep or kernel throughput regressed by more than
// -perf-tolerance (default 0.25); CI's perf-quick job runs exactly
// that against bench_baseline.json.
//
// -cpuprofile and -memprofile write pprof profiles of the whole run,
// for digging into regressions the gate reports.
//
// -telemetry reads the software Neo-Host during the run that produces
// the results, as the paper reads its counters: each selected
// instrumented experiment runs once, with a fresh telemetry registry on
// its Env, and the harvested counters and controller trajectories go
// as a JSON document to the given path. The registry changes no result
// table, so the results document is the same with or without it. -trace
// N gives that registry an event ring: the last N telemetry events of a
// single instrumented experiment are dumped, sim-time-stamped, to the
// progress stream after its run.
//
// -faults installs a fault plan on the chaos experiment's RNIC:
// "default" for the built-in plan, or a rule spec like
// "delay@2ms-3ms:x=6;fail@3ms-4ms:kind=cas,p=0.7" (grammar in
// internal/fault). The chaos shape checks are calibrated against the
// default plan; custom plans run fine but may legitimately fail
// -check.
//
// -arrival installs an arrival-process template on the serving
// experiment: a spec like "poisson:rate=4", "mmpp:high=8,low=1,
// on=200us,off=600us", or "trace:gaps=1us+2us+1us" (grammar in
// internal/arrival). The sweep rescales the template's mean rate per
// point, so only its shape matters. The serving shape checks are
// calibrated against the Poisson default; burstier templates run fine
// but may legitimately fail -check.
//
// -batching installs a WR-batching template on the batching ablation:
// a spec like "both:batch=32,deadline=4us" or "coalesce:batch=8"
// (grammar in internal/verbs). The ablation sweeps the mode axis
// itself, so only the template's batch=/deadline= overrides apply.
// The batching shape checks are calibrated against the default knobs;
// overridden knobs run fine but may legitimately fail -check.
//
// Each template is parsed by its own grammar before anything runs, and
// an experiment that can still refuse one (serving, whose load
// fractions can rescale an -arrival template past the arrival model's
// rate cap) checks it through Experiment.Validate then: everything that
// can be wrong with the flags is a usage error, so the run itself
// cannot fail. -dryrun stops there and prints each selected
// experiment's point count, enumerated on a probing sweeper (nothing
// executes).
//
// Exit status: 0 on success, 1 when -check finds shape violations or
// -perf-baseline finds a throughput regression, 2 on usage errors (no
// -exp, unknown ID, bad flag values, negative -parallel,
// -telemetry or -trace with no instrumented experiment selected,
// -faults with a malformed spec or without the chaos experiment
// selected, -arrival with a malformed spec or without the serving
// experiment selected, -batching with a malformed spec or without the
// batching experiment selected, an -arrival template some serving
// point rescales past its rate cap, an unwritable
// -cpuprofile/-memprofile path, or an unreadable -perf-baseline
// record).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/arrival"
	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/perf"
	"repro/internal/result"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/verbs"
)

// benchSeq is the sequence number stamped into the perf records this
// build writes: -stats produces the BENCH_<benchSeq>.json document.
// Bump it in the PR that re-records the perf trajectory.
const benchSeq = 24

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smartbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "", "experiment id(s), comma separated, or 'all'")
		dryrun   = fs.Bool("dryrun", false, "validate the flags and print each experiment's point count without executing")
		quick    = fs.Bool("quick", false, "sparse sweeps (faster, fewer points)")
		list     = fs.Bool("list", false, "list experiments and exit")
		format   = fs.String("format", "text", "output format: text or json")
		out      = fs.String("out", "", "write rendered output to this file instead of stdout")
		check    = fs.Bool("check", false, "assert the paper's qualitative shapes; exit 1 on violations")
		seed     = fs.Int64("seed", 0, "offset every experiment's built-in seeds (0 = published numbers)")
		telem    = fs.String("telemetry", "", "harvest instrumented experiments' counters during their run; write them as JSON to this file")
		trace    = fs.Int("trace", 0, "keep the last N telemetry events of one instrumented run and dump them")
		faults   = fs.String("faults", "", "fault plan for the chaos experiment: 'default' or a rule spec (see internal/fault)")
		arrv     = fs.String("arrival", "", "arrival template for the serving experiment: e.g. 'poisson:rate=4' or 'mmpp' (see internal/arrival)")
		batching = fs.String("batching", "", "WR-batching template for the batching experiment: e.g. 'both:batch=32,deadline=4us' (see internal/verbs)")
		parallel = fs.Int("parallel", 0, "sweep-point workers per experiment (0 = GOMAXPROCS, 1 = sequential)")
		stats    = fs.String("stats", "", "write the perf record (sweep points/sec + kernel hot-path stats) as JSON to this file")
		perfBase = fs.String("perf-baseline", "", "compare this run's perf record against the given baseline; exit 1 on regression")
		perfTol  = fs.Float64("perf-tolerance", 0.25, "allowed fractional throughput regression for -perf-baseline")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		printList(stdout)
		return 0
	}
	if *exp == "" {
		// Usage error: same message shape and exit code whether the
		// binary was run bare or with unrelated flags.
		fmt.Fprintln(stderr, "smartbench: no experiment selected; run with -exp <id> (or -exp all)")
		fs.Usage()
		printList(stderr)
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "smartbench: unknown -format %q (want text or json)\n", *format)
		return 2
	}
	if *trace < 0 {
		fmt.Fprintf(stderr, "smartbench: -trace %d is negative (want an event count)\n", *trace)
		return 2
	}
	if *parallel < 0 {
		fmt.Fprintf(stderr, "smartbench: -parallel %d is negative (want a worker count, or 0 for GOMAXPROCS)\n", *parallel)
		return 2
	}
	if *perfTol < 0 || *perfTol >= 1 {
		fmt.Fprintf(stderr, "smartbench: -perf-tolerance %v out of range [0, 1)\n", *perfTol)
		return 2
	}

	var selected []*bench.Experiment
	if *exp == "all" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			e := bench.ByID(id)
			if e == nil {
				msg := fmt.Sprintf("smartbench: unknown experiment %q", id)
				if near := nearestID(id); near != "" {
					msg += fmt.Sprintf("; did you mean %q?", near)
				} else {
					msg += "; try -list"
				}
				fmt.Fprintln(stderr, msg)
				return 2
			}
			selected = append(selected, e)
		}
	}

	// Each template flag is parsed by its own grammar onto the Env, and
	// only the experiment that reads it may be selected with it.
	env := bench.Env{Seed: *seed, Quick: *quick}
	for _, tf := range []struct {
		name, value, expID string
		parse              func(string) error
	}{
		{"faults", *faults, "chaos", func(v string) (err error) { env.Faults, err = fault.Parse(v); return err }},
		{"arrival", *arrv, "serving", func(v string) (err error) { env.Arrival, err = arrival.Parse(v); return err }},
		{"batching", *batching, "batching", func(v string) (err error) { env.Batching, err = verbs.ParseBatching(v); return err }},
	} {
		if tf.value == "" {
			continue
		}
		if !slices.ContainsFunc(selected, func(e *bench.Experiment) bool { return e.ID == tf.expID }) {
			fmt.Fprintf(stderr, "smartbench: -%s only applies to the %s experiment; add %s to -exp\n",
				tf.name, tf.expID, tf.expID)
			return 2
		}
		if err := tf.parse(tf.value); err != nil {
			fmt.Fprintf(stderr, "smartbench: -%s: %v\n", tf.name, err)
			return 2
		}
	}
	for _, e := range selected {
		if e.Validate == nil {
			continue
		}
		if err := e.Validate(env); err != nil {
			fmt.Fprintf(stderr, "smartbench: %s: %v\n", e.ID, err)
			return 2
		}
	}

	// -telemetry and -trace only make sense against instrumented
	// experiments; reject empty selections up front rather than
	// silently writing an empty document.
	instrumented := 0
	for _, e := range selected {
		if e.Instrumented {
			instrumented++
		}
	}
	if *telem != "" && instrumented == 0 {
		fmt.Fprintf(stderr, "smartbench: -telemetry needs an instrumented experiment; have: %s\n",
			instrumentedIDs())
		return 2
	}
	if *trace > 0 && instrumented != 1 {
		fmt.Fprintf(stderr, "smartbench: -trace follows a single instrumented run; select exactly one of: %s\n",
			instrumentedIDs())
		return 2
	}

	// An instrumented experiment fills a fresh registry (with -trace's
	// event ring) during its one run.
	telemetryWanted := *telem != "" || *trace > 0
	envFor := func(e *bench.Experiment) bench.Env {
		renv := env
		if telemetryWanted && e.Instrumented {
			renv.Telemetry = telemetry.New()
			if *trace > 0 {
				renv.Telemetry.EnableTrace(*trace)
			}
		}
		return renv
	}

	// -dryrun enumerates each experiment on a probing sweeper: its
	// labels, seeds and count, with nothing executed.
	if *dryrun {
		for _, e := range selected {
			points := 0
			renv := envFor(e)
			renv.Sweeper = sweep.Probe(func(s *sweep.Set) { points += s.Len() })
			e.Run(renv)
			fmt.Fprintf(stdout, "smartbench: %s enumerates %d points\n", e.ID, points)
		}
		return 0
	}

	// The baseline is read before any sweep time is spent: an
	// unreadable record is a usage error, not a regression.
	var baseline *perf.Record
	if *perfBase != "" {
		b, err := perf.Load(*perfBase)
		if err != nil {
			fmt.Fprintf(stderr, "smartbench: -perf-baseline: %v\n", err)
			return 2
		}
		baseline = b
	}

	// Profiles cover the whole run (sweeps plus the kernel workloads a
	// -stats run measures). Both files are created up front so a bad
	// path is a usage error before any sweep time is spent.
	var memProfFile *os.File
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintf(stderr, "smartbench: -memprofile: %v\n", err)
			return 2
		}
		memProfFile = f
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "smartbench: -cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "smartbench: -cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}

	// With -format json the document must be the only bytes on the
	// render stream, so progress goes to stderr; text output keeps the
	// banners inline as before.
	render := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "smartbench: %v\n", err)
			return 2
		}
		defer f.Close()
		render = f
	}
	progress := stderr
	if *format == "text" && *out == "" {
		progress = stdout
	}

	doc := &result.Document{
		Generator: "smartbench",
		Paper:     "Scaling Up Memory Disaggregated Applications with SMART (ASPLOS 2024)",
		Quick:     *quick,
		Seed:      *seed,
	}
	telemDoc := &result.Document{
		Generator: "smartbench-telemetry",
		Paper:     doc.Paper,
		Quick:     *quick,
		Seed:      *seed,
	}
	// One sweeper serves every selected experiment: each Run enumerates
	// its points and executes them on sw's worker pool. The progress
	// hook fires in merge order, so the completed/total lines are
	// byte-identical across worker counts (only the timing lines vary).
	sw := sweep.New(*parallel)
	env.Sweeper = sw
	rec := &perf.Record{Schema: perf.SchemaVersion, Bench: benchSeq, Workers: sw.Workers(), Quick: *quick}
	totalStart := time.Now()
	var violations []bench.Verdict
	for _, e := range selected {
		start := time.Now()
		fmt.Fprintf(progress, "\n################ %s: %s\n", e.ID, e.Title)
		points := 0
		sw.OnPoint(func(done, total int, p *sweep.Point) {
			points++
			fmt.Fprintf(progress, "[%s %d/%d %s]\n", e.ID, done, total, p.Label)
		})
		renv := envFor(e)
		tables := e.Run(renv)
		doc.Experiments = append(doc.Experiments, result.Experiment{
			ID: e.ID, Title: e.Title, Tables: tables,
		})
		if *format == "text" {
			result.Text(render, tables)
		}
		var verdicts []bench.Verdict
		if *check {
			verdicts = bench.Check(e.ID, tables)
		}
		if reg := renv.Telemetry; reg != nil {
			ttables := reg.Tables()
			telemDoc.Experiments = append(telemDoc.Experiments, result.Experiment{
				ID: e.ID, Title: e.Title, Tables: ttables,
			})
			if *check {
				verdicts = append(verdicts, bench.CheckTelemetry(e.ID, ttables)...)
			}
			if *trace > 0 {
				reg.Trace().Write(progress)
			}
		}
		for _, v := range verdicts {
			if v.Detail != "" {
				fmt.Fprintf(progress, "[check %s FAIL]\n", v.Check)
				violations = append(violations, v)
				continue
			}
			fmt.Fprintf(progress, "[check %s margin %+.1f%%]\n", v.Check, 100*v.Margin)
		}
		wallMS := time.Since(start).Milliseconds()
		rec.Experiments = append(rec.Experiments, perf.Experiment{
			ID: e.ID, Points: points, WallMS: wallMS, PointsPerSec: perf.PerSec(points, wallMS),
		})
		rec.TotalPoints += points
		fmt.Fprintf(progress, "\n[%s done in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	rec.TotalWallMS = time.Since(totalStart).Milliseconds()
	rec.PointsPerSec = perf.PerSec(rec.TotalPoints, rec.TotalWallMS)
	if *format == "json" {
		if err := result.JSON(render, doc); err != nil {
			fmt.Fprintf(stderr, "smartbench: %v\n", err)
			return 2
		}
	}
	if *telem != "" {
		f, err := os.Create(*telem)
		if err != nil {
			fmt.Fprintf(stderr, "smartbench: %v\n", err)
			return 2
		}
		if err := result.JSON(f, telemDoc); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "smartbench: %v\n", err)
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "smartbench: %v\n", err)
			return 2
		}
		fmt.Fprintf(progress, "\n[telemetry written to %s]\n", *telem)
	}
	// Kernel hot-path stats are only measured when someone will read
	// them: a -stats record or a -perf-baseline comparison.
	if *stats != "" || *perfBase != "" {
		fmt.Fprintf(progress, "\n[measuring kernel hot paths]\n")
		rec.Kernel = perf.MeasureKernel()
	}
	if *stats != "" {
		if err := rec.Write(*stats); err != nil {
			fmt.Fprintf(stderr, "smartbench: -stats: %v\n", err)
			return 2
		}
		fmt.Fprintf(progress, "\n[perf record written to %s]\n", *stats)
	}
	if baseline != nil {
		if bad := perf.Gate(baseline, rec, *perfTol); len(bad) > 0 {
			fmt.Fprintf(stderr, "\nsmartbench: %d perf regression(s) vs %s:\n", len(bad), *perfBase)
			for _, v := range bad {
				fmt.Fprintf(stderr, "  FAIL %s\n", v)
			}
			return 1
		}
		fmt.Fprintf(progress, "\n[perf gate passed against %s]\n", *perfBase)
	}
	if memProfFile != nil {
		runtime.GC()
		if err := pprof.WriteHeapProfile(memProfFile); err != nil {
			fmt.Fprintf(stderr, "smartbench: -memprofile: %v\n", err)
			return 2
		}
		if err := memProfFile.Close(); err != nil {
			fmt.Fprintf(stderr, "smartbench: -memprofile: %v\n", err)
			return 2
		}
	}

	if *check {
		if len(violations) > 0 {
			fmt.Fprintf(stderr, "\nsmartbench: %d shape violation(s):\n", len(violations))
			for _, v := range violations {
				fmt.Fprintf(stderr, "  FAIL %-38s %s\n", v.Check, v.Detail)
			}
			return 1
		}
		fmt.Fprintf(progress, "\nsmartbench: all shape checks passed\n")
	}
	return 0
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "experiments:")
	for _, cat := range bench.Categories() {
		first := true
		for _, e := range bench.All() {
			if e.Category != cat {
				continue
			}
			if first {
				fmt.Fprintf(w, "\n %s:\n", cat)
				first = false
			}
			mark := " "
			if e.Instrumented {
				mark = "*"
			}
			fmt.Fprintf(w, "  %-12s %s %s\n", e.ID, mark, e.Title)
		}
	}
	fmt.Fprintln(w, "\n'*' marks instrumented (software Neo-Host) experiments: add")
	fmt.Fprintln(w, "-telemetry <file.json> to harvest their counters and controller")
	fmt.Fprintln(w, "trajectories from the same run, and -trace <N> to dump one's last N events.")
	fmt.Fprintln(w, "The chaos experiment accepts -faults <spec> ('default' or a rule")
	fmt.Fprintln(w, "spec; see internal/fault) to choose the injected fault plan; the")
	fmt.Fprintln(w, "serving experiment accepts -arrival <spec> (see internal/arrival)")
	fmt.Fprintln(w, "to choose the swept arrival-process template; the batching")
	fmt.Fprintln(w, "experiment accepts -batching <spec> (see internal/verbs) to")
	fmt.Fprintln(w, "override the coalescing knobs its mode axis shares.")
	fmt.Fprintln(w, "-dryrun prints each selected experiment's point count and exits.")
}

// instrumentedIDs lists the instrumented registered experiments, in ID
// order, for the usage errors.
func instrumentedIDs() string {
	var ids []string
	for _, e := range bench.All() {
		if e.Instrumented {
			ids = append(ids, e.ID)
		}
	}
	return strings.Join(ids, ", ")
}

// nearestID returns the registered experiment ID with the smallest
// edit distance from id, or "" when nothing is plausibly close.
func nearestID(id string) string {
	best, bestDist := "", len(id)/2+2
	for _, e := range bench.All() {
		if d := editDistance(id, e.ID); d < bestDist {
			best, bestDist = e.ID, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
