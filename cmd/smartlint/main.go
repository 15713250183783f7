// Smartlint is the contract linter for this reproduction: a
// multichecker that runs the eight custom analyzers from
// internal/analysis over the module, plus a selected set of `go vet`
// passes. Every number the reproduction reports depends on the
// discrete-event engine being bit-for-bit deterministic under a fixed
// seed and on the concurrency/fault contracts around it; these rules
// machine-check the invariants that keep it that way:
//
//	nowallclock    no wall-clock time sources inside simulation code
//	seededrand     no unseeded or global randomness
//	maporder       no map-iteration order leaking into simulation state
//	simtime        no real sleeps/timeouts where simulated time exists
//	sharedstate    no unsynchronized writes to per-run shared state
//	pointisolation sweep run closures touch only point-owned state
//	cqestatus      completion payloads consumed only after a status check
//	ignoreaudit    every ignore directive is named, reasoned, and live
//
// Usage:
//
//	go run ./cmd/smartlint [flags] [packages]
//
// with ./... as the default package pattern. Flags:
//
//	-tests=false          skip _test.go files
//	-vet=false            skip the go vet passes
//	-list                 list the analyzers and exit
//	-format text|json     diagnostic output format (default text)
//
// The exit status is 1 if any diagnostic is reported or a vet pass
// fails, 2 if the module cannot be loaded, 0 otherwise.
// Individual findings can be suppressed with a
// `//smartlint:ignore <analyzer> — <reason>` comment on, or directly
// above, the flagged line; the ignoreaudit analyzer holds those
// directives to that form.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"repro/internal/analysis/cqestatus"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/ignoreaudit"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/nowallclock"
	"repro/internal/analysis/pointisolation"
	"repro/internal/analysis/seededrand"
	"repro/internal/analysis/sharedstate"
	"repro/internal/analysis/simtime"
)

// suite is the smartlint analyzer set, in reporting order; the
// framework runs ignoreaudit last, over the other analyzers'
// suppression accounting.
var suite = &framework.Suite{
	Analyzers: []*framework.Analyzer{
		nowallclock.Analyzer,
		seededrand.Analyzer,
		maporder.Analyzer,
		simtime.Analyzer,
		sharedstate.Analyzer,
		pointisolation.Analyzer,
		cqestatus.Analyzer,
		ignoreaudit.Analyzer,
	},
}

// vetPasses are the stock `go vet` analyzers worth running alongside
// the contract suite (the full vet set runs as its own CI step).
var vetPasses = []string{"-printf", "-copylocks", "-atomic", "-unreachable", "-bools"}

func main() {
	os.Exit(run(".", os.Stdout, os.Stderr, os.Args[1:]))
}

// run is the whole command, parameterized for tests: dir is the
// module directory, and the returned int is the exit status.
func run(dir string, stdout, stderr io.Writer, argv []string) int {
	fs := flag.NewFlagSet("smartlint", flag.ExitOnError)
	fs.SetOutput(stderr)
	tests := fs.Bool("tests", true, "also analyze _test.go files")
	vet := fs.Bool("vet", true, "also run selected go vet passes")
	list := fs.Bool("list", false, "list the analyzers and exit")
	format := fs.String("format", "text", "diagnostic output format: text or json")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: smartlint [flags] [package pattern ...]\n\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nanalyzers:\n")
		for _, a := range suite.Analyzers {
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	fs.Parse(argv)

	if *list {
		for _, a := range suite.Analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "smartlint: unknown -format %q (want text or json)\n", *format)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := framework.LoadModule(dir, *tests, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "smartlint:", err)
		return 2
	}

	var findings []framework.Finding
	for _, pkg := range pkgs {
		diags, err := suite.Run(pkg)
		if err != nil {
			fmt.Fprintln(stderr, "smartlint:", err)
			return 2
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			name := pos.Filename
			if rel, err := filepath.Rel(dir, name); err == nil {
				name = rel
			}
			findings = append(findings, framework.Finding{
				Analyzer: d.Analyzer,
				File:     filepath.ToSlash(name),
				Line:     pos.Line,
				Col:      pos.Column,
				Message:  d.Message,
			})
		}
	}

	// Vet output goes to stderr in both formats so stdout carries
	// nothing but the findings (text) or the report (json).
	vetStatus := "skipped"
	if *vet {
		vetStatus = "ok"
		args := append(append([]string{"vet"}, vetPasses...), patterns...)
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		cmd.Stdout = stderr
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			vetStatus = "failed"
		}
	}

	report := framework.NewReport(suite.Names(), findings, vetStatus)
	switch *format {
	case "text":
		for _, f := range report.Findings {
			fmt.Fprintln(stdout, f)
		}
	case "json":
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "smartlint:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(data))
	}

	// Distinct summaries: "which gate failed" must be readable off
	// stderr alone.
	failed := false
	if report.Summary.Total > 0 {
		failed = true
		fmt.Fprintf(stderr, "smartlint: %d diagnostic(s)\n", report.Summary.Total)
	}
	if vetStatus == "failed" {
		failed = true
		fmt.Fprintln(stderr, "smartlint: go vet failed (see output above)")
	}
	if failed {
		return 1
	}
	return 0
}
