package framework

import (
	"strings"
	"testing"
)

// TestLoadModule type-checks a real slice of the module through the
// two-tier importer (go list metadata for module packages, source
// importer for the standard library).
func TestLoadModule(t *testing.T) {
	pkgs, err := LoadModule("../../..", false, "./internal/sim/...", "./internal/workload/...")
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]*Package)
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	for _, want := range []string{"repro/internal/sim", "repro/internal/workload"} {
		pkg, ok := byPath[want]
		if !ok {
			t.Fatalf("LoadModule did not return %s (got %v)", want, paths(pkgs))
		}
		if pkg.Types == nil || pkg.Info == nil || len(pkg.Files) == 0 {
			t.Errorf("%s: incomplete package: %+v", want, pkg)
		}
	}
	// Cross-module import resolution: workload's Zipf generator takes
	// the engine's *rand.Rand, so its package must see math/rand via
	// the stdlib source importer.
	wl := byPath["repro/internal/workload"]
	found := false
	for _, imp := range wl.Types.Imports() {
		if imp.Path() == "math/rand" {
			found = true
		}
	}
	if !found {
		t.Errorf("repro/internal/workload imports = %v, want math/rand among them", wl.Types.Imports())
	}
}

// TestLoadModuleWithTests compiles in-package test files into their
// package: the sim package's test helpers must be visible.
func TestLoadModuleWithTests(t *testing.T) {
	pkgs, err := LoadModule("../../..", true, "./internal/stats/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if p.PkgPath != "repro/internal/stats" {
			continue
		}
		for _, f := range p.Files {
			if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
				return
			}
		}
	}
	t.Fatalf("no _test.go file compiled into repro/internal/stats: %v", paths(pkgs))
}

// TestLoadModuleTestOnlyImports loads a package whose tests import a
// module package its own files do not (race's tests build a cluster).
// That package must be loaded from the module's metadata, not
// type-checked a second time by the source importer, or the test files
// see two distinct verbs packages and fail to type-check.
func TestLoadModuleTestOnlyImports(t *testing.T) {
	pkgs, err := LoadModule("../../..", true, "./internal/race")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if p.PkgPath == "repro/internal/race" {
			return
		}
	}
	t.Fatalf("LoadModule did not return repro/internal/race: %v", paths(pkgs))
}

func paths(pkgs []*Package) []string {
	var out []string
	for _, p := range pkgs {
		out = append(out, p.PkgPath)
	}
	return out
}
