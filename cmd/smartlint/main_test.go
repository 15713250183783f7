package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/framework"
)

// writeModule materializes a throwaway module for run() to lint.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmplint\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// mapOrderViolation trips maporder: the append observes randomized
// iteration order.
const mapOrderViolation = `package p

func Order(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
`

func runCmd(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(dir, &out, &errb, args)
	return code, out.String(), errb.String()
}

func TestFreshFindingTextOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{"p/p.go": mapOrderViolation})
	code, stdout, stderr := runCmd(t, dir, "-vet=false")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "p/p.go:5:2: maporder:") {
		t.Errorf("stdout missing text diagnostic:\n%s", stdout)
	}
	if !strings.Contains(stderr, "smartlint: 1 diagnostic(s)") {
		t.Errorf("stderr missing diagnostics summary:\n%s", stderr)
	}
	if strings.Contains(stderr, "go vet failed") {
		t.Errorf("stderr claims a vet failure for a skipped vet run:\n%s", stderr)
	}
}

func TestJSONReport(t *testing.T) {
	dir := writeModule(t, map[string]string{"p/p.go": mapOrderViolation})
	code, stdout, _ := runCmd(t, dir, "-vet=false", "-format", "json")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var rep framework.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, stdout)
	}
	if rep.Version != 1 || rep.Vet != "skipped" {
		t.Errorf("report header = version %d vet %q, want version 1 vet skipped", rep.Version, rep.Vet)
	}
	if len(rep.Analyzers) != 8 {
		t.Errorf("report lists %d analyzers, want 8: %v", len(rep.Analyzers), rep.Analyzers)
	}
	if rep.Summary.Total != 1 {
		t.Errorf("summary = %+v, want 1 total", rep.Summary)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Analyzer != "maporder" || rep.Findings[0].File != "p/p.go" {
		t.Errorf("findings = %+v", rep.Findings)
	}
}

func TestTestsFlagSkipsTestFiles(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"p/p.go":      "package p\n",
		"p/p_test.go": mapOrderViolation,
	})
	if code, stdout, stderr := runCmd(t, dir, "-vet=false", "-tests=false"); code != 0 {
		t.Fatalf("-tests=false exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if code, _, _ := runCmd(t, dir, "-vet=false"); code != 1 {
		t.Fatalf("default run exit = %d, want 1 (violation lives in a _test.go file)", code)
	}
}

func TestVetFailureDistinctSummary(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"p/p.go": "package p\n\nimport \"fmt\"\n\nfunc Bad() string { return fmt.Sprintf(\"%d\", \"x\") }\n",
	})
	code, _, stderr := runCmd(t, dir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "go vet failed") {
		t.Errorf("stderr missing vet-failure summary:\n%s", stderr)
	}
	if strings.Contains(stderr, "diagnostic(s)") {
		t.Errorf("stderr reports analyzer diagnostics for a vet-only failure:\n%s", stderr)
	}
}

func TestListAndBadFormat(t *testing.T) {
	code, stdout, _ := runCmd(t, t.TempDir(), "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	for _, name := range []string{"nowallclock", "pointisolation", "cqestatus", "ignoreaudit"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout)
		}
	}
	if code, _, _ := runCmd(t, t.TempDir(), "-format", "xml"); code != 2 {
		t.Errorf("-format xml exit = %d, want 2", code)
	}
}
