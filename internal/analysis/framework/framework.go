// Package framework is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis surface that smartlint's
// analyzers are written against. The container this reproduction is
// grown in has no network access and an empty module cache, so the
// real x/tools module cannot be pinned; instead of stubbing the
// analyzers out, the handful of framework concepts they need —
// Analyzer, Pass, Diagnostic, a module loader, and an analysistest
// harness — are implemented here on top of the standard library's
// go/ast, go/parser, go/types, and go/importer packages. The API is
// kept deliberately shape-compatible with x/tools so that a future PR
// with network access can swap the import path and delete this
// package.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static-analysis rule. Unlike x/tools, Run
// reports diagnostics through the Pass rather than returning facts;
// smartlint's rules are all intra-package, so the facts machinery is
// not needed.
type Analyzer struct {
	// Name identifies the rule. It is printed with each diagnostic and
	// is the token accepted by //smartlint:ignore comments.
	Name string

	// Doc is a one-paragraph description shown by `smartlint -help`.
	Doc string

	// Audit marks an analyzer that inspects the suite itself rather
	// than the analyzed code: Suite.Run executes audit analyzers after
	// every ordinary analyzer, with the suppression accounting already
	// populated (ignoreaudit needs that to detect stale directives).
	Audit bool

	// Run executes the rule over a single type-checked package.
	Run func(*Pass) error
}

// A Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// PkgPath is the import path the package was loaded under. For
	// external test packages it carries the "_test" suffix.
	PkgPath string

	// AllDirectives holds every //smartlint:ignore directive found in
	// the package's files — including bare and unknown-name ones —
	// in source order. Audit analyzers (ignoreaudit) read it.
	AllDirectives []Directive

	// Audit is the suite-level suppression accounting. It is always
	// non-nil; in a standalone RunAnalyzer call it knows only about
	// this one analyzer.
	Audit *Audit

	// ignored maps filename -> line -> the directive suppressing this
	// analyzer on that line.
	ignored map[string]map[int]*Directive

	// report receives every non-suppressed diagnostic.
	report func(Diagnostic)
}

// A Diagnostic is one finding, positioned in the loaded FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// IgnoreDirective is the comment prefix that suppresses a diagnostic:
// `//smartlint:ignore <analyzer> — <reason>` (several names may
// precede the reason, separated by spaces or commas) on the flagged
// line or the line directly above it. A directive with no analyzer
// names suppresses nothing; the ignoreaudit analyzer reports it.
const IgnoreDirective = "//smartlint:ignore"

// Reportf reports a diagnostic at pos unless an ignore directive
// covers it; a suppression is recorded against the directive in the
// pass's Audit, which is what lets ignoreaudit find stale directives.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if lines, ok := p.ignored[position.Filename]; ok {
		for _, l := range []int{position.Line, position.Line - 1} {
			if d := lines[l]; d != nil {
				p.Audit.noteSuppressed(*d)
				return
			}
		}
	}
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// ObjectOf returns the object denoted by identifier id, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return p.TypesInfo.Uses[id]
}

// RunAnalyzer applies one analyzer to one loaded package and returns
// its diagnostics sorted by position. The analyzer runs with a
// private, single-analyzer Audit; to share suppression accounting
// across a whole suite (which stale-directive detection needs), use
// Suite.Run instead.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	return runAnalyzer(a, pkg, NewAudit(a.Name))
}

// runAnalyzer applies one analyzer to one loaded package, recording
// suppressions in audit.
func runAnalyzer(a *Analyzer, pkg *Package, audit *Audit) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		PkgPath:   pkg.PkgPath,
		Audit:     audit,
		ignored:   make(map[string]map[int]*Directive),
		report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	for _, f := range pkg.Files {
		for _, d := range ParseDirectives(pkg.Fset, f) {
			pass.AllDirectives = append(pass.AllDirectives, d)
			if !d.Covers(a.Name) {
				continue
			}
			lines := pass.ignored[d.File]
			if lines == nil {
				lines = make(map[int]*Directive)
				pass.ignored[d.File] = lines
			}
			lines[d.Line] = &d
		}
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
	}
	audit.noteRan(a.Name)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
