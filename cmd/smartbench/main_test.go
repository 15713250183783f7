package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/perf"
	"repro/internal/result"
)

// runCLI invokes run with captured output streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// goldenSpec resolves a checked-in golden spec file relative to this
// package's test working directory.
func goldenSpec(name string) string {
	return filepath.Join("..", "..", "internal", "bench", "testdata", "specs", name)
}

// seedSpec resolves one of FuzzScenarioSpecParse's seed documents.
func seedSpec(name string) string {
	return filepath.Join("..", "..", "internal", "spec", "testdata", "seeds", name)
}

func TestUsageErrorsExit2(t *testing.T) {
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
		{"batching without batching selected", []string{"-exp", "fig4", "-batching", "both"}, "only applies to the batching experiment"},
		{"perf tolerance too high", []string{"-exp", "fig4", "-perf-tolerance", "1.5"}, "out of range"},
		{"perf tolerance negative", []string{"-exp", "fig4", "-perf-tolerance", "-0.1"}, "out of range"},
		{"unwritable cpuprofile", []string{"-exp", "fig4", "-cpuprofile", "no/such/dir/cpu.prof"}, "-cpuprofile"},
		{"unwritable memprofile", []string{"-exp", "fig4", "-memprofile", "no/such/dir/mem.prof"}, "-memprofile"},
		{"missing perf baseline", []string{"-exp", "fig4", "-quick", "-perf-baseline", "no/such/baseline.json"}, "-perf-baseline"},
		{"spec with exp", []string{"-spec", "x.json", "-exp", "fig3"}, "mutually exclusive"},
		{"spec with quick", []string{"-spec", "x.json", "-quick"}, "does not apply to -spec runs"},
		{"dryrun without spec", []string{"-dryrun", "-exp", "fig4"}, "-dryrun needs -spec"},
		{"missing spec file", []string{"-spec", "no/such/spec.json"}, "-spec"},
		{"arrival on micro spec", []string{"-spec", goldenSpec("fig3_quick.json"), "-arrival", "poisson:rate=4"}, "arrival only applies to serving scenarios"},
		{"batching on serving spec", []string{"-spec", goldenSpec("serving_quick.json"), "-batching", "both"}, "batching does not apply to serving scenarios"},
		{"malformed faults on spec", []string{"-spec", goldenSpec("fig3_quick.json"), "-faults", "explode@1ms-2ms"}, "unknown action"},
		{"telemetry on uninstrumented spec", []string{"-spec", goldenSpec("fig3_quick.json"), "-telemetry", "t.json"}, "has no instrumented variant"},
		{"trace on uninstrumented spec", []string{"-spec", goldenSpec("fig3_quick.json"), "-trace", "16"}, "has no instrumented variant"},
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
// the instrumented fig13 run must write a parseable telemetry document
// containing the C_max trajectory, dump a trace to the progress
// stream, and keep the -format json stdout pure.
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

// TestParallelByteIdentity is the CLI face of the sweep scheduler's
// merge-order contract: the same experiment, run with -parallel 1 and
// -parallel 3, must write byte-identical result documents. The -stats
// sidecar carries the wall-clock/worker bookkeeping precisely so the
// documents can stay identical.
func TestParallelByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep twice")
	}
	dir := t.TempDir()
	render := func(parallel string) []byte {
		out := filepath.Join(dir, "out_p"+parallel+".json")
		code, stdout, stderr := runCLI(
			"-exp", "fig4", "-quick", "-format", "json", "-out", out,
			"-parallel", parallel, "-stats", filepath.Join(dir, "stats_p"+parallel+".json"))
		if code != 0 {
			t.Fatalf("-parallel %s: exit %d, want 0; stderr:\n%s", parallel, code, stderr)
		}
		if stdout != "" {
			t.Fatalf("-parallel %s: -out set but stdout not empty:\n%s", parallel, stdout)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq, par := render("1"), render("3")
	if !bytes.Equal(seq, par) {
		t.Errorf("-parallel 1 and -parallel 3 rendered different documents:\n--- sequential\n%s\n--- parallel\n%s", seq, par)
	}

	// The perf record must carry the worker count, point count, and
	// kernel hot-path stats under the versioned schema.
	st, err := perf.Load(filepath.Join(dir, "stats_p3.json"))
	if err != nil {
		t.Fatalf("stats file is not a valid perf record: %v", err)
	}
	if st.Schema != perf.SchemaVersion {
		t.Errorf("stats schema = %d, want %d", st.Schema, perf.SchemaVersion)
	}
	if st.Workers != 3 {
		t.Errorf("stats workers = %d, want 3", st.Workers)
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
	if testing.Short() {
		t.Skip("runs a real sweep twice")
	}
	pointLines := func(parallel string) []string {
		out := filepath.Join(t.TempDir(), "out.json")
		code, _, stderr := runCLI(
			"-exp", "fig4", "-quick", "-format", "json", "-out", out, "-parallel", parallel)
		if code != 0 {
			t.Fatalf("-parallel %s: exit %d; stderr:\n%s", parallel, code, stderr)
		}
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
	seq, par := pointLines("1"), pointLines("4")
	if len(seq) == 0 {
		t.Fatal("no per-point progress lines on the progress stream")
	}
	if strings.Join(seq, "\n") != strings.Join(par, "\n") {
		t.Errorf("progress point lines differ across worker counts:\n--- sequential\n%s\n--- parallel\n%s",
			strings.Join(seq, "\n"), strings.Join(par, "\n"))
	}
}

// TestChaosRunEndToEnd is the CI chaos-quick job in miniature: the
// chaos experiment under the default fault plan must pass its own
// recovery shape checks and emit the recovery and fault-counter tables.
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
		t.Skip("runs the chaos and serving quick sweeps four times each")
	}
	for _, tc := range []struct{ exp, flag, value string }{
		{"chaos", "-faults", "delay@2ms-3ms:x=6;fail@3ms-4ms:kind=cas,p=0.7"},
		{"serving", "-arrival", "mmpp"},
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

// TestSpecFileErrorsExit2 pins the exit-2 discipline for spec files
// that exist but are unusable: malformed JSON, schema violations, and
// check groups no shape checks are registered for.
func TestSpecFileErrorsExit2(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	badJSON := write("bad.json", "{ not json")
	badSchema := write("schema.json", `{"spec":1,"name":"x","scenario":"quantum"}`)
	badCheck := write("check.json", `{"spec":1,"name":"x","scenario":"micro","micro":{"profiles":[{"name":"b","policy":"per-thread-qp"}],"panels":[{"id":"p","title":"t","op":"read","x":"threads","threads":[8],"batch":[8],"seed":1}]},"checks":["nonesuch"]}`)

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"malformed json", []string{"-spec", badJSON}, "-spec"},
		{"schema violation", []string{"-spec", badSchema}, "unknown scenario"},
		{"unknown check group", []string{"-spec", badCheck, "-check"}, "no shape checks registered"},
		// Documents that parse but cannot run are usage errors too, with
		// -dryrun (what CI's spec-validate runs) and without it.
		{"sharedcq on a shared CQ", []string{"-spec", seedSpec("micro_sharedcq_shared_qp.json")}, "SharedCQPoll requires a per-thread-CQ policy"},
		{"sharedcq on a shared CQ, dryrun", []string{"-spec", seedSpec("micro_sharedcq_shared_qp.json"), "-dryrun"}, "SharedCQPoll requires a per-thread-CQ policy"},
		{"faults on batching", []string{"-spec", seedSpec("batching_faults.json")}, "faults only apply to micro scenarios"},
		{"faults on batching, dryrun", []string{"-spec", seedSpec("batching_faults.json"), "-dryrun"}, "faults only apply to micro scenarios"},
		{"faults flag on batching spec", []string{"-spec", goldenSpec("batching_quick.json"), "-faults", "default", "-dryrun"}, "faults only apply to micro scenarios"},
		{"serving load past the arrival rate cap", []string{"-spec", seedSpec("serving_rate_over_cap.json")}, "topology 1x4 at load 5: serve: arrival: poisson rate 2000"},
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
			if !strings.HasPrefix(stderr, "smartbench: -spec") || strings.Count(stderr, "\n") != 1 {
				t.Errorf("want a one-line smartbench: -spec message, got:\n%s", stderr)
			}
		})
	}

	// Without -check the unknown group is dormant, so a -dryrun of the
	// same spec is fine — the gate fires only when checks would run.
	code, stdout, stderr := runCLI("-spec", badCheck, "-dryrun")
	if code != 0 {
		t.Errorf("dryrun without -check: exit %d; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "enumerates") {
		t.Errorf("dryrun stdout missing the point count:\n%s", stdout)
	}
}

// TestSpecDryRunGoldens is CI's spec-validate job in miniature: every
// checked-in golden spec parses, validates, and lowers through the
// probing sweeper without executing a point.
func TestSpecDryRunGoldens(t *testing.T) {
	files, err := filepath.Glob(goldenSpec("*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no golden specs found")
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			code, stdout, stderr := runCLI("-spec", f, "-dryrun")
			if code != 0 {
				t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stdout, "enumerates") || strings.Contains(stdout, "enumerates 0 points") {
				t.Errorf("dryrun did not report a positive point count:\n%s", stdout)
			}
		})
	}
}

// TestSpecRunEndToEnd runs the fig3 golden spec through the CLI with
// checks and JSON output: the document must carry the spec's name as
// its experiment ID and the panel tables the spec declares.
func TestSpecRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	out := filepath.Join(t.TempDir(), "spec.json")
	code, stdout, stderr := runCLI(
		"-spec", goldenSpec("fig3_quick.json"), "-check",
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
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := result.ParseJSON(f)
	if err != nil {
		t.Fatalf("spec output is not valid JSON: %v", err)
	}
	if len(doc.Experiments) != 1 || doc.Experiments[0].ID != "fig3-quick" {
		t.Fatalf("experiments = %+v, want one fig3-quick entry", doc.Experiments)
	}
	for _, id := range []string{"fig3-read", "fig3-write"} {
		if result.Find(doc.Experiments[0].Tables, id) == nil {
			t.Errorf("spec document missing table %q", id)
		}
	}
}

// TestSpecTelemetryEndToEnd exercises the spec path's instrumented
// branch: the serving golden spec with -telemetry must write a second
// document harvested from the overload point's registry.
func TestSpecTelemetryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving sweep twice")
	}
	dir := t.TempDir()
	telem := filepath.Join(dir, "telem.json")
	code, _, stderr := runCLI(
		"-spec", goldenSpec("serving_quick.json"),
		"-format", "json", "-out", filepath.Join(dir, "out.json"), "-telemetry", telem)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
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
	if len(doc.Experiments) != 1 || doc.Experiments[0].ID != "serving-quick" {
		t.Fatalf("telemetry experiments = %+v, want one serving-quick entry", doc.Experiments)
	}
	if result.Find(doc.Experiments[0].Tables, "counters") == nil {
		t.Error("telemetry document missing the counters table")
	}
}
