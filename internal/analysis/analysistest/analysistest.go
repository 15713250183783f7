// Package analysistest runs framework analyzers over fixture packages
// and checks their diagnostics against expectations written in the
// fixtures, mirroring golang.org/x/tools/go/analysis/analysistest
// (which cannot be imported in this offline container).
//
// Fixtures live under <testdata>/src/<pkg>/*.go. A line that should be
// flagged carries a trailing comment of the form
//
//	// want "regexp"
//
// with one quoted regular expression per expected diagnostic on that
// line (double- or back-quoted). Fixture packages may import each
// other by their directory name under src/, and may import the
// standard library.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis/framework"
)

// One loader per testdata directory is shared by every Run call in a
// test binary: its stdlib source importer re-type-checks $GOROOT/src
// on first use of each package, which costs seconds, so the cache must
// outlive a single fixture package.
var (
	mu      sync.Mutex
	loaders = make(map[string]*framework.Loader)
)

// Run loads each fixture package under testdata/src and reports, via
// t, any mismatch between the analyzer's diagnostics and the // want
// expectations in the fixture source.
func Run(t *testing.T, testdata string, a *framework.Analyzer, pkgs ...string) {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	for _, pkg := range pkgs {
		runOne(t, testdata, a.Name, pkg, func(p *framework.Package) ([]framework.Diagnostic, error) {
			return framework.RunAnalyzer(a, p)
		})
	}
}

// RunSuite is Run for a whole framework.Suite: fixtures see the merged
// diagnostics of every analyzer in the suite, sharing one suppression
// accounting — the only way to exercise audit analyzers like
// ignoreaudit, whose findings depend on what the rest of the suite
// suppressed.
func RunSuite(t *testing.T, testdata string, suite *framework.Suite, pkgs ...string) {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	name := strings.Join(suite.Names(), "+")
	for _, pkg := range pkgs {
		runOne(t, testdata, name, pkg, suite.Run)
	}
}

func runOne(t *testing.T, testdata, name, pkgPath string, run func(*framework.Package) ([]framework.Diagnostic, error)) {
	t.Helper()
	ld, ok := loaders[testdata]
	if !ok {
		ld = framework.NewSrcLoader(filepath.Join(testdata, "src"))
		loaders[testdata] = ld
	}
	pkg, err := ld.Load(pkgPath)
	if err != nil {
		t.Errorf("%s: loading fixture %s: %v", name, pkgPath, err)
		return
	}
	diags, err := run(pkg)
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				for _, pat := range wantPatterns(t, pos, c.Text) {
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], pat)
				}
			}
		}
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		matched := false
		for i, pat := range wants[k] {
			if pat.MatchString(d.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s: %s", name, pos, d.Message)
		}
	}
	var leftover []string
	//smartlint:ignore maporder — leftover is sorted before reporting
	for k, pats := range wants {
		for _, pat := range pats {
			leftover = append(leftover, fmt.Sprintf("%s:%d: no diagnostic matching %q", k.file, k.line, pat))
		}
	}
	sort.Strings(leftover)
	for _, miss := range leftover {
		t.Errorf("%s: %s", name, miss)
	}
}

// wantPatterns extracts the quoted regexps from a `// want ...`
// comment, or nil if the comment is not an expectation. The marker may
// also appear mid-comment (`//smartlint:ignore ... // want "..."`) so
// fixtures can state expectations for diagnostics reported on a
// directive's own line.
func wantPatterns(t *testing.T, pos token.Position, text string) []*regexp.Regexp {
	t.Helper()
	var rest string
	if r, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(text, "//")), "want "); ok {
		rest = r
	} else if i := strings.Index(text, "// want "); i >= 0 {
		rest = text[i+len("// want "):]
	} else {
		return nil
	}
	var pats []*regexp.Regexp
	for _, lit := range stringLits.FindAllString(rest, -1) {
		s, err := strconv.Unquote(lit)
		if err != nil {
			t.Errorf("%s: bad want literal %s: %v", pos, lit, err)
			continue
		}
		pat, err := regexp.Compile(s)
		if err != nil {
			t.Errorf("%s: bad want regexp %q: %v", pos, s, err)
			continue
		}
		pats = append(pats, pat)
	}
	if len(pats) == 0 {
		t.Errorf("%s: want comment with no parseable patterns: %s", pos, text)
	}
	return pats
}

var stringLits = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")
