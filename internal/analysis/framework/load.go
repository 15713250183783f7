package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listedPkg is the subset of `go list -json` output the loader uses.
// GoFiles etc. are already filtered for the current build context, so
// the loader never has to evaluate build constraints itself.
type listedPkg struct {
	Dir          string
	ImportPath   string
	Name         string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Standard     bool
	ForTest      string // set on a test variant that -test synthesizes
}

// LoadModule lists the packages matching patterns in the module rooted
// at (or containing) dir, parses and type-checks them, and returns
// them in deterministic import-path order. When includeTests is true,
// in-package _test.go files are compiled into their package and
// external test packages are returned as separate entries with a
// "_test" path suffix.
//
// Imports are resolved in two tiers: packages inside the module are
// loaded from the `go list` metadata, and everything else (the
// standard library) is delegated to the stdlib source importer, which
// type-checks $GOROOT/src directly and therefore works without
// network access or pre-built export data.
func LoadModule(dir string, includeTests bool, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	// A second, -deps listing supplies metadata for module packages
	// that are imported by the targets but not matched by the
	// patterns themselves — with tests, by their test files too: a
	// module package missing here would fall through to the source
	// importer and be type-checked a second time, as a distinct
	// package.
	deps := []string{"-deps"}
	if includeTests {
		deps = append(deps, "-test")
	}
	universe, err := goList(dir, append(deps, patterns...))
	if err != nil {
		return nil, err
	}
	mod := make(map[string]*listedPkg)
	for _, p := range universe {
		// -test also lists each target's synthesized test variants
		// ("p [p.test]") and test main ("p.test"); the loader builds
		// tests from the plain entry.
		if !p.Standard && p.ForTest == "" && !strings.HasSuffix(p.ImportPath, ".test") {
			mod[p.ImportPath] = p
		}
	}
	ld := newLoader(dir, func(path string) *listedPkg { return mod[path] })
	for _, p := range targets {
		mod[p.ImportPath] = p
		// Target packages are built exactly once, with their
		// in-package test files compiled in, whether they are reached
		// first as an analysis target or as an import of one: a
		// package must have a single types.Package identity per load.
		ld.withTests[p.ImportPath] = includeTests
	}

	var out []*Package
	for _, p := range targets {
		pkg, err := ld.Load(p.ImportPath)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
		if includeTests && len(p.XTestGoFiles) > 0 {
			xpkg, err := ld.check(p.ImportPath+"_test", p.Dir, p.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			out = append(out, xpkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// goList runs `go list -json` with extra arguments and decodes the
// JSON stream it prints.
func goList(dir string, args []string) ([]*listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.String())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", args, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// A Loader type-checks packages on demand, memoizing results so each
// package is checked exactly once per Loader. Its find function
// resolves an import path to the package's files; a path find does not
// know is the standard library's, which the stdlib source importer
// type-checks from $GOROOT/src.
type Loader struct {
	dir       string
	fset      *token.FileSet
	find      func(path string) *listedPkg // nil: not one of the loader's packages
	withTests map[string]bool
	cache     map[string]*Package
	building  map[string]bool
	std       types.Importer
}

func newLoader(dir string, find func(path string) *listedPkg) *Loader {
	return &Loader{
		dir:       dir,
		fset:      token.NewFileSet(),
		find:      find,
		withTests: make(map[string]bool),
		cache:     make(map[string]*Package),
		building:  make(map[string]bool),
	}
}

// NewSrcLoader returns a Loader for analyzer fixtures, laid out as a
// GOPATH src tree: import path p is the package in src/p, made of its
// *.go files in name order; any other path is the standard library's.
func NewSrcLoader(src string) *Loader {
	return newLoader(src, func(path string) *listedPkg {
		dir := filepath.Join(src, path)
		names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		if len(names) == 0 {
			return nil
		}
		for i, name := range names {
			names[i] = filepath.Base(name)
		}
		return &listedPkg{Dir: dir, GoFiles: names}
	})
}

// Load returns the memoized build of one of the loader's packages,
// checking it on first use. It returns (nil, nil) for a package with no
// compilable files (e.g. a directory holding only external tests when
// tests are excluded).
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	p := l.find(path)
	if p == nil {
		return nil, fmt.Errorf("unknown package %s", path)
	}
	if l.building[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	files := p.GoFiles
	if l.withTests[path] {
		files = append(append([]string{}, p.GoFiles...), p.TestGoFiles...)
	}
	if len(files) == 0 {
		l.cache[path] = nil
		return nil, nil
	}
	return l.check(path, p.Dir, files)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if l.find(path) != nil {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("package %s has no compilable Go files", path)
		}
		return pkg.Types, nil
	}
	if l.std == nil {
		l.std = importer.ForCompiler(l.fset, "source", nil)
	}
	if from, ok := l.std.(types.ImporterFrom); ok {
		return from.ImportFrom(path, l.dir, 0)
	}
	return l.std.Import(path)
}

// check parses and type-checks one package from explicit files.
func (l *Loader) check(pkgPath, dir string, filenames []string) (*Package, error) {
	l.building[pkgPath] = true
	defer delete(l.building, pkgPath)

	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(pkgPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", pkgPath, err)
	}
	pkg := &Package{
		PkgPath: pkgPath,
		Dir:     dir,
		Fset:    l.fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	// Importers of a test-augmented target see the extra (and
	// necessarily unreferenced) test declarations; identity is what
	// matters.
	l.cache[pkgPath] = pkg
	return pkg, nil
}
