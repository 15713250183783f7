package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/perf"
	"repro/internal/result"
	"repro/internal/sweep"
)

// runCLI invokes run with captured output streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestUsageErrorsExit2(t *testing.T) {
	// An MMPP template whose on-phase rate, rescaled to the lightest
	// serving load (a quarter of the 1x8 topology's capacity), passes
	// the arrival model's rate cap.
	overCap := "mmpp:high=1000,low=0,on=1us,off=999us"
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"no experiment", nil, "no experiment selected"},
		{"unknown experiment", []string{"-exp", "fig33"}, "did you mean"},
		{"unknown format", []string{"-exp", "fig3", "-format", "yaml"}, "unknown -format"},
		{"negative trace", []string{"-exp", "fig13", "-trace", "-5"}, "negative"},
		{"negative parallel", []string{"-exp", "fig4", "-parallel", "-2"}, "-parallel -2 is negative"},
		{"trace without instrumented run", []string{"-exp", "fig4", "-trace", "16"}, "exactly one of"},
		{"trace across two instrumented runs", []string{"-exp", "fig3,fig13", "-trace", "16"}, "exactly one of"},
		{"telemetry without instrumented run", []string{"-exp", "fig4", "-telemetry", "t.json"}, "needs an instrumented experiment"},
		{"malformed faults spec", []string{"-exp", "chaos", "-faults", "explode@1ms-2ms"}, "unknown action"},
		{"faults spec without window", []string{"-exp", "chaos", "-faults", "delay"}, "missing '@window'"},
		{"faults without chaos selected", []string{"-exp", "fig4", "-faults", "default"}, "only applies to the chaos experiment"},
		{"malformed arrival spec", []string{"-exp", "serving", "-arrival", "weibull:rate=4"}, "unknown kind"},
		{"arrival spec with bad rate", []string{"-exp", "serving", "-arrival", "poisson:rate=-1"}, "arrival:"},
		{"arrival without serving selected", []string{"-exp", "fig4", "-arrival", "poisson:rate=4"}, "only applies to the serving experiment"},
		{"malformed batching spec", []string{"-exp", "batching", "-batching", "turbo:batch=32"}, "unknown mode"},
		{"batching spec with bad batch", []string{"-exp", "batching", "-batching", "coalesce:batch=0"}, "out of range"},
		{"batching spec with sharedcq", []string{"-exp", "batching", "-quick", "-batching", "both:sharedcq"}, "unknown option"},
		{"batching without batching selected", []string{"-exp", "fig4", "-batching", "both"}, "only applies to the batching experiment"},
		{"perf tolerance too high", []string{"-exp", "fig4", "-perf-tolerance", "1.5"}, "out of range"},
		{"perf tolerance negative", []string{"-exp", "fig4", "-perf-tolerance", "-0.1"}, "out of range"},
		{"unwritable cpuprofile", []string{"-exp", "fig4", "-cpuprofile", "no/such/dir/cpu.prof"}, "-cpuprofile"},
		{"unwritable memprofile", []string{"-exp", "fig4", "-memprofile", "no/such/dir/mem.prof"}, "-memprofile"},
		{"missing perf baseline", []string{"-exp", "fig4", "-quick", "-perf-baseline", "no/such/baseline.json"}, "-perf-baseline"},
		{"spec flag is gone", []string{"-spec", "x.json"}, "flag provided but not defined: -spec"},
		{"arrival past the rate cap at some load", []string{"-exp", "serving", "-quick", "-arrival", overCap}, "at load"},
		{"arrival past the rate cap, dryrun", []string{"-exp", "serving", "-quick", "-dryrun", "-arrival", overCap}, "at load"},
		{"arrival past the rate cap among other experiments", []string{"-exp", "fig4,serving", "-quick", "-arrival", overCap}, "smartbench: serving: topology 1x8 at load 0.25: "},
		// The default MMPP burst fits every quick load but not the full
		// grid's heaviest: 2.5x the 4x32 topology's capacity.
		{"default mmpp at full density", []string{"-exp", "serving", "-arrival", "mmpp"}, "topology 4x32 at load 2.5: "},
		{"default mmpp at full density, dryrun", []string{"-exp", "serving", "-dryrun", "-arrival", "mmpp"}, "topology 4x32 at load 2.5: "},
		{"arrival on a micro experiment", []string{"-exp", "fig3", "-arrival", "poisson:rate=4"}, "only applies to the serving experiment"},
		{"batching on serving", []string{"-exp", "serving", "-batching", "both"}, "only applies to the batching experiment"},
		{"faults on batching", []string{"-exp", "batching", "-faults", "default"}, "only applies to the chaos experiment"},
		{"faults on batching, dryrun", []string{"-exp", "batching", "-dryrun", "-faults", "default"}, "only applies to the chaos experiment"},
		{"malformed faults spec, dryrun", []string{"-exp", "chaos", "-dryrun", "-faults", "explode@1ms-2ms"}, "unknown action"},
		{"malformed arrival spec, dryrun", []string{"-exp", "serving", "-dryrun", "-arrival", "weibull:rate=4"}, "unknown kind"},
		{"malformed batching spec, dryrun", []string{"-exp", "batching", "-dryrun", "-batching", "turbo:batch=32"}, "unknown mode"},
		{"batching spec with sharedcq, dryrun", []string{"-exp", "batching", "-dryrun", "-batching", "both:sharedcq"}, "unknown option"},
		{"dryrun without experiment", []string{"-dryrun"}, "no experiment selected"},
		{"dryrun with unknown experiment", []string{"-exp", "fig33", "-dryrun"}, "did you mean"},
		{"telemetry without instrumented run, dryrun", []string{"-exp", "fig4", "-dryrun", "-telemetry", "t.json"}, "needs an instrumented experiment"},
		{"trace across two instrumented runs, dryrun", []string{"-exp", "fig3,fig13", "-dryrun", "-trace", "16"}, "exactly one of"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, stderr := runCLI(c.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, c.want) {
				t.Errorf("stderr missing %q:\n%s", c.want, stderr)
			}
		})
	}
}

func TestListMarksInstrumentedExperiments(t *testing.T) {
	code, stdout, _ := runCLI("-list")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	for _, id := range []string{"fig3", "fig13", "fig14"} {
		found := false
		for _, line := range strings.Split(stdout, "\n") {
			if strings.Contains(line, id+" ") && strings.Contains(line, "*") {
				found = true
			}
		}
		if !found {
			t.Errorf("instrumented experiment %s not marked with '*':\n%s", id, stdout)
		}
	}
	if strings.Contains(stdout, "fig4  *") {
		t.Error("fig4 wrongly marked as instrumented")
	}
	for _, flag := range []string{"-telemetry", "-trace", "-arrival", "-batching"} {
		if !strings.Contains(stdout, flag) {
			t.Errorf("list footer does not mention %s:\n%s", flag, stdout)
		}
	}
}

func TestListGroupsByCategory(t *testing.T) {
	code, stdout, _ := runCLI("-list")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	// Category headers appear in registry order, and each experiment
	// lands under its own header.
	order := []string{"figures:", "ablations:", "chaos:", "serving:"}
	last := -1
	for _, h := range order {
		i := strings.Index(stdout, h)
		if i < 0 {
			t.Fatalf("list missing category header %q:\n%s", h, stdout)
		}
		if i < last {
			t.Errorf("category %q out of order", h)
		}
		last = i
	}
	section := func(id string) int {
		i := strings.Index(stdout, "\n  "+id)
		if i < 0 {
			t.Fatalf("experiment %s not listed:\n%s", id, stdout)
		}
		n := 0
		for j, h := range order {
			if k := strings.Index(stdout, h); k >= 0 && k < i {
				n = j
			}
		}
		return n
	}
	for id, want := range map[string]int{
		"fig3": 0, "tab1": 0, "abl-db": 1, "chaos": 2, "serving": 3,
	} {
		if got := section(id); got != want {
			t.Errorf("%s listed under %q, want %q", id, order[got], order[want])
		}
	}
}

// TestTelemetryRunEndToEnd exercises the full -telemetry/-trace path:
// fig13 must run once — its plain sweep, with the registry riding it —
// write a parseable telemetry document containing the C_max
// trajectory, dump a trace to the progress stream, and keep the
// -format json stdout pure.
func TestTelemetryRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real instrumented experiment")
	}
	dir := t.TempDir()
	telem := filepath.Join(dir, "telem.json")
	out := filepath.Join(dir, "results.json")

	code, stdout, stderr := runCLI(
		"-exp", "fig13", "-quick", "-format", "json",
		"-out", out, "-telemetry", telem, "-trace", "16")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("-out set but stdout not empty:\n%s", stdout)
	}
	if !strings.Contains(stderr, "trace:") || !strings.Contains(stderr, "op-end") {
		t.Errorf("progress stream missing the event trace:\n%s", stderr)
	}
	if sweeps, points := strings.Count(stderr, "[fig13 1/"), strings.Count(stderr, "/24 fig13"); sweeps != 1 || points != 24 {
		t.Errorf("fig13 ran %d sweeps with %d of 24 plain points reported, want one sweep of 24:\n%s", sweeps, points, stderr)
	}

	f, err := os.Open(telem)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := result.ParseJSON(f)
	if err != nil {
		t.Fatalf("telemetry output is not valid JSON: %v", err)
	}
	if doc.Generator != "smartbench-telemetry" {
		t.Errorf("generator = %q, want smartbench-telemetry", doc.Generator)
	}
	if len(doc.Experiments) != 1 || doc.Experiments[0].ID != "fig13" {
		t.Fatalf("telemetry experiments = %+v, want one fig13 entry", doc.Experiments)
	}
	tables := doc.Experiments[0].Tables
	if result.Find(tables, "cmax-trajectory") == nil {
		t.Error("telemetry document missing the cmax-trajectory table")
	}
	if result.Find(tables, "counters") == nil {
		t.Error("telemetry document missing the counters table")
	}

	// The regular results document must be untouched by telemetry mode.
	rf, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	rdoc, err := result.ParseJSON(rf)
	if err != nil {
		t.Fatalf("results output is not valid JSON: %v", err)
	}
	if rdoc.Generator != "smartbench" {
		t.Errorf("results generator = %q, want smartbench", rdoc.Generator)
	}
}

// fig4Run is one memoized `-exp fig4 -quick -format json` CLI run: its
// exit status, streams, -out document and -stats record.
type fig4Run struct {
	parallel       string
	code           int
	stdout, stderr string
	doc            []byte
	stats          *perf.Record
	err            error // from the scratch directory or reading -out/-stats back
}

var fig4Pair struct {
	once sync.Once
	runs [2]fig4Run
}

// fig4Runs runs `-exp fig4 -quick` once per test binary at -parallel 1
// and at -parallel 4, each with -format json, -out and -stats, and
// hands the pair to every test that compares worker counts.
func fig4Runs(t *testing.T) (seq, par *fig4Run) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs a real sweep twice")
	}
	fig4Pair.once.Do(func() {
		dir, err := os.MkdirTemp("", "smartbench-fig4-")
		defer os.RemoveAll(dir)
		for i, parallel := range []string{"1", "4"} {
			r := &fig4Pair.runs[i]
			r.parallel = parallel
			if r.err = err; err != nil {
				continue
			}
			out := filepath.Join(dir, "out_p"+parallel+".json")
			stats := filepath.Join(dir, "stats_p"+parallel+".json")
			r.code, r.stdout, r.stderr = runCLI(
				"-exp", "fig4", "-quick", "-format", "json", "-out", out,
				"-parallel", parallel, "-stats", stats)
			if r.code != 0 {
				continue
			}
			if r.doc, r.err = os.ReadFile(out); r.err == nil {
				r.stats, r.err = perf.Load(stats)
			}
		}
	})
	for i := range fig4Pair.runs {
		r := &fig4Pair.runs[i]
		if r.err != nil {
			t.Fatalf("-parallel %s: %v", r.parallel, r.err)
		}
		if r.code != 0 {
			t.Fatalf("-parallel %s: exit %d, want 0; stderr:\n%s", r.parallel, r.code, r.stderr)
		}
	}
	return &fig4Pair.runs[0], &fig4Pair.runs[1]
}

// TestParallelByteIdentity is the CLI face of the sweep scheduler's
// merge-order contract: the same experiment, run with -parallel 1 and
// -parallel 4, must write byte-identical result documents. The -stats
// sidecar carries the wall-clock/worker bookkeeping precisely so the
// documents can stay identical.
func TestParallelByteIdentity(t *testing.T) {
	seq, par := fig4Runs(t)
	for _, r := range []*fig4Run{seq, par} {
		if r.stdout != "" {
			t.Fatalf("-parallel %s: -out set but stdout not empty:\n%s", r.parallel, r.stdout)
		}
	}
	if !bytes.Equal(seq.doc, par.doc) {
		t.Errorf("-parallel 1 and -parallel 4 rendered different documents:\n--- sequential\n%s\n--- parallel\n%s", seq.doc, par.doc)
	}

	// The perf record must carry the worker count, point count, and
	// kernel hot-path stats under the versioned schema.
	st := par.stats
	if st.Schema != perf.SchemaVersion {
		t.Errorf("stats schema = %d, want %d", st.Schema, perf.SchemaVersion)
	}
	if st.Workers != 4 {
		t.Errorf("stats workers = %d, want 4", st.Workers)
	}
	if len(st.Experiments) != 1 || st.Experiments[0].ID != "fig4" || st.Experiments[0].Points == 0 {
		t.Errorf("stats experiments = %+v, want one fig4 entry with points > 0", st.Experiments)
	}
	if st.TotalPoints != st.Experiments[0].Points || st.PointsPerSec <= 0 {
		t.Errorf("stats totals = %d points at %.1f/sec, want totals matching the one experiment",
			st.TotalPoints, st.PointsPerSec)
	}
	if len(st.Kernel) == 0 {
		t.Error("stats record has no kernel hot-path stats")
	}
}

// TestPerfGateRoundTrip runs a quick sweep with -stats, then replays it
// with that record as -perf-baseline (must pass: same machine, same
// build) and against an impossibly fast forged baseline (must fail with
// exit 1). This is the CI perf-quick job in miniature.
func TestPerfGateRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep three times")
	}
	dir := t.TempDir()
	base := filepath.Join(dir, "baseline.json")
	code, _, stderr := runCLI("-exp", "fig4", "-quick", "-parallel", "2", "-stats", base)
	if code != 0 {
		t.Fatalf("baseline run: exit %d; stderr:\n%s", code, stderr)
	}

	code, stdout, stderr := runCLI("-exp", "fig4", "-quick", "-parallel", "2",
		"-perf-baseline", base, "-perf-tolerance", "0.9")
	if code != 0 {
		t.Fatalf("self-comparison failed the gate: exit %d; stderr:\n%s", code, stderr)
	}
	// Text format with no -out: progress (and the verdict) is stdout.
	if !strings.Contains(stdout, "perf gate passed") {
		t.Errorf("progress stream missing the gate verdict:\n%s", stdout)
	}

	// Forge a baseline claiming ludicrous throughput: the gate must
	// report the regression and exit 1.
	rec, err := perf.Load(base)
	if err != nil {
		t.Fatal(err)
	}
	rec.PointsPerSec *= 1e6
	forged := filepath.Join(dir, "forged.json")
	if err := rec.Write(forged); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = runCLI("-exp", "fig4", "-quick", "-parallel", "2", "-perf-baseline", forged)
	if code != 1 {
		t.Fatalf("forged baseline: exit %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "sweep throughput regressed") {
		t.Errorf("stderr missing the regression detail:\n%s", stderr)
	}
}

// TestProfileFlagsWriteFiles pins the -cpuprofile/-memprofile happy
// path: both files exist and are non-empty after a quick run.
func TestProfileFlagsWriteFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	code, _, stderr := runCLI("-exp", "fig4", "-quick", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestParallelProgressIsDeterministic pins the progress stream's
// completed/total lines: the hook fires in merge order, so the point
// lines are identical at any worker count (only timing lines differ).
func TestParallelProgressIsDeterministic(t *testing.T) {
	pointLines := func(stderr string) []string {
		var lines []string
		for _, l := range strings.Split(stderr, "\n") {
			// "[fig4 3/6 thr=96/owr=2]" — but not the wall-clock
			// line "[fig4 done in 1.2s]", which may legitimately vary.
			if strings.HasPrefix(l, "[fig4 ") && !strings.Contains(l, " done in ") {
				lines = append(lines, l)
			}
		}
		return lines
	}
	seqRun, parRun := fig4Runs(t)
	seq, par := pointLines(seqRun.stderr), pointLines(parRun.stderr)
	if len(seq) == 0 {
		t.Fatal("no per-point progress lines on the progress stream")
	}
	if strings.Join(seq, "\n") != strings.Join(par, "\n") {
		t.Errorf("progress point lines differ across worker counts:\n--- sequential\n%s\n--- parallel\n%s",
			strings.Join(seq, "\n"), strings.Join(par, "\n"))
	}
}

// TestChaosRunEndToEnd is CI's chaos gate in miniature (the quick-sweep
// step and telemetry-determinism's seed-7 run both run chaos with
// -check): the chaos experiment under the default fault plan must pass
// its own recovery shape checks and emit the recovery and
// fault-counter tables.
func TestChaosRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real chaos experiment")
	}
	out := filepath.Join(t.TempDir(), "chaos.json")
	code, stdout, stderr := runCLI(
		"-exp", "chaos", "-quick", "-check", "-faults", "default",
		"-format", "json", "-out", out)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("-out set but stdout not empty:\n%s", stdout)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := result.ParseJSON(f)
	if err != nil {
		t.Fatalf("chaos output is not valid JSON: %v", err)
	}
	if len(doc.Experiments) != 1 || doc.Experiments[0].ID != "chaos" {
		t.Fatalf("experiments = %+v, want one chaos entry", doc.Experiments)
	}
	tables := doc.Experiments[0].Tables
	for _, id := range []string{"chaos-recovery", "chaos-throughput", "counters", "storm/gamma", "storm/tmax-trajectory"} {
		if result.Find(tables, id) == nil {
			t.Errorf("chaos document missing table %q", id)
		}
	}
	counters := result.Find(tables, "counters")
	if counters == nil {
		t.Fatal("no counters table")
	}
	if v, ok := counters.GetLabel("value", "fault/injected"); !ok || v == 0 {
		t.Errorf("fault/injected = %g (ok=%v), want nonzero", v, ok)
	}
}

// TestOverridesAreCallScoped pins the one-Env contract: a template
// flag reaches only the run it was passed to. Two CLI invocations of
// the same experiment — one with the flag, one on the calibrated
// default — run concurrently in this process, and each must render
// exactly the document it renders alone. A template parked in package
// state shows up as a byte diff, or as a race report under -race (how
// CI runs this test).
func TestOverridesAreCallScoped(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the chaos, serving and batching quick sweeps four times each")
	}
	for _, tc := range []struct{ exp, flag, value string }{
		{"chaos", "-faults", "delay@2ms-3ms:x=6;fail@3ms-4ms:kind=cas,p=0.7"},
		{"serving", "-arrival", "mmpp"},
		{"batching", "-batching", "both:batch=32"},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			base := []string{"-exp", tc.exp, "-quick", "-format", "json"}
			argv := [2][]string{append(slices.Clip(base), tc.flag, tc.value), base}
			var alone, together [2]string
			for i, args := range argv {
				code, stdout, stderr := runCLI(args...)
				if code != 0 {
					t.Fatalf("%v: exit %d; stderr:\n%s", args, code, stderr)
				}
				alone[i] = stdout
			}
			if alone[0] == alone[1] {
				t.Fatalf("%s %s changed nothing; the test needs a template with a visible effect", tc.flag, tc.value)
			}
			var wg sync.WaitGroup
			for i, args := range argv {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, together[i], _ = runCLI(args...)
				}()
			}
			wg.Wait()
			for i, args := range argv {
				if together[i] != alone[i] {
					t.Errorf("%v rendered a different document next to a concurrent run than alone", args)
				}
			}
		})
	}
}

// probeCount enumerates e on a probing sweeper, as -dryrun does, and
// returns its point count.
func probeCount(e *bench.Experiment, env bench.Env) int {
	points := 0
	env.Sweeper = sweep.Probe(func(s *sweep.Set) { points += s.Len() })
	e.Run(env)
	return points
}

// dryRunCounts parses -dryrun's stdout: one "ID enumerates N points"
// line per selected experiment, in selection order.
func dryRunCounts(t *testing.T, stdout string) (ids []string, counts []int) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSuffix(stdout, "\n"), "\n") {
		var id string
		var points int
		if _, err := fmt.Sscanf(line, "smartbench: %s enumerates %d points", &id, &points); err != nil {
			t.Fatalf("dryrun line %q: %v", line, err)
		}
		ids = append(ids, id)
		counts = append(counts, points)
	}
	return ids, counts
}

// TestDryRunCountsEveryExperiment pins -dryrun at both densities: every
// registered experiment reports, one line each and in selection order,
// the positive point count its sweeps enumerate on a probe, without a
// point executing.
func TestDryRunCountsEveryExperiment(t *testing.T) {
	all := bench.All()
	if len(all) != 21 {
		t.Fatalf("%d registered experiments, want 21", len(all))
	}
	for _, quick := range []bool{true, false} {
		density, args := "full", []string{"-exp", "all", "-dryrun"}
		if quick {
			density, args = "quick", append(args, "-quick")
		}
		t.Run(density, func(t *testing.T) {
			code, stdout, stderr := runCLI(args...)
			if code != 0 {
				t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
			}
			ids, counts := dryRunCounts(t, stdout)
			if len(ids) != len(all) {
				t.Fatalf("%d dryrun lines, want %d:\n%s", len(ids), len(all), stdout)
			}
			for i, e := range all {
				t.Run(e.ID, func(t *testing.T) {
					want := probeCount(e, bench.Env{Quick: quick})
					if ids[i] != e.ID || counts[i] != want || want <= 0 {
						t.Errorf("line %d reports %s with %d points, want %s with %d (> 0)", i+1, ids[i], counts[i], e.ID, want)
					}
				})
			}
		})
	}
}

// TestDryRunAcceptsTemplates runs -dryrun with valid -faults, -arrival
// and -batching templates: each parses onto the Env, passes the
// experiment's Validate at both densities (serving's rescales the
// template to every load), and leaves the enumeration as it is — a
// template changes what each point runs, not which points run.
func TestDryRunAcceptsTemplates(t *testing.T) {
	for _, tc := range []struct{ exp, flag, value string }{
		{"chaos", "-faults", "default"},
		{"chaos", "-faults", "delay@1ms-2ms"},
		{"chaos", "-faults", "fail@0ns-1us:status=retry-exceeded"},
		{"chaos", "-faults", "fail@2ms-4ms:kind=cas+faa,p=0.7,status=remote-access"},
		{"chaos", "-faults", "drop@500us-900us:kind=read,drops=3,p=0.25"},
		{"chaos", "-faults", "blackhole@3600us-4ms:kind=read+write,p=0.15"},
		{"chaos", "-faults", "delay@2ms-3ms:x=6,kind=read+write;drop@3ms-3600us:drops=2,p=0.6"},
		{"serving", "-arrival", "poisson"},
		{"serving", "-arrival", "poisson:rate=0.25"},
		{"serving", "-arrival", "mmpp:high=4,low=1,on=200us,off=600us"},
		{"serving", "-arrival", "mmpp:high=2,low=0,on=1ms,off=1ms"},
		{"serving", "-arrival", "trace:gaps=1us+2us+500ns"},
		{"serving", "-arrival", "trace:gaps=1us"},
		{"batching", "-batching", "off"},
		{"batching", "-batching", "postlist"},
		{"batching", "-batching", "coalesce"},
		{"batching", "-batching", "both:batch=32"},
		{"batching", "-batching", "coalesce:batch=32,deadline=4us"},
		{"batching", "-batching", "both:batch=1,deadline=2000ns"},
		{"batching", "-batching", "coalesce:deadline=50us"},
	} {
		t.Run(tc.exp+" "+tc.value, func(t *testing.T) {
			for _, quick := range []bool{true, false} {
				args := []string{"-exp", tc.exp, "-dryrun", tc.flag, tc.value}
				if quick {
					args = append(args, "-quick")
				}
				code, stdout, stderr := runCLI(args...)
				if code != 0 {
					t.Fatalf("quick=%v: exit %d, want 0; stderr:\n%s", quick, code, stderr)
				}
				ids, counts := dryRunCounts(t, stdout)
				want := probeCount(bench.ByID(tc.exp), bench.Env{Quick: quick})
				if len(ids) != 1 || ids[0] != tc.exp || counts[0] != want {
					t.Errorf("quick=%v: dryrun reported %v with %v points, want %s with %d", quick, ids, counts, tc.exp, want)
				}
			}
		})
	}
}

// TestFig3RunEndToEnd runs fig3 through the CLI with checks and JSON
// output on two workers and no registry: its tables, substituted into
// the fig3 entry of internal/bench's quick golden, must render its
// bytes. The golden was written with a registry attached and on its own
// worker count, so this run is the test binary's witness that neither a
// registry nor the worker count moves a fig3 byte (CI's
// telemetry-determinism job covers the other instrumented experiments).
func TestFig3RunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	out := filepath.Join(t.TempDir(), "fig3.json")
	code, stdout, stderr := runCLI(
		"-exp", "fig3", "-quick", "-check",
		"-format", "json", "-out", out, "-parallel", "2")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("-out set but stdout not empty:\n%s", stdout)
	}
	if !strings.Contains(stderr, "all shape checks passed") {
		t.Errorf("progress stream missing the check verdict:\n%s", stderr)
	}
	// -check reports each check's margin on the progress stream, one
	// line per check.
	var margins []string
	for _, l := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(l, "[check ") {
			margins = append(margins, strings.Fields(l)[1])
			if !strings.Contains(l, " margin ") {
				t.Errorf("check line without a margin: %s", l)
			}
		}
	}
	if want := []string{
		"fig3/doorbell-beats-per-thread-qp", "fig3/shared-qp-collapses", "fig3/per-thread-qp-peaks-early",
		"fig3/doorbell-saturates-ceiling", "fig3/policies-tie-at-few-threads",
	}; !slices.Equal(margins, want) {
		t.Errorf("margin lines name %v, want one for each of fig3's checks: %v", margins, want)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := result.ParseJSON(f)
	if err != nil {
		t.Fatalf("fig3 output is not valid JSON: %v", err)
	}
	if len(doc.Experiments) != 1 || doc.Experiments[0].ID != "fig3" {
		t.Fatalf("experiments = %+v, want one fig3 entry", doc.Experiments)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "bench", "testdata", "quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := result.ParseJSON(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(golden.Experiments, func(e result.Experiment) bool { return e.ID == "fig3" })
	if i < 0 {
		t.Fatal("the quick golden has no fig3 entry")
	}
	fig3 := golden.Experiments[i].Tables
	golden.Experiments[i].Tables = doc.Experiments[0].Tables
	var got bytes.Buffer
	if err := result.JSON(&got, golden); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		var g, w bytes.Buffer
		result.Text(&g, doc.Experiments[0].Tables)
		result.Text(&w, fig3)
		t.Errorf("fig3 tables drifted from the fig3 entry of the quick golden:\n--- got\n%s\n--- want\n%s", g.String(), w.String())
	}
}
