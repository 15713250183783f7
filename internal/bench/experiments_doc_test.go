package bench

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/result"
)

// renderDocBlock is what EXPERIMENTS.md shows between the markers of
// experiment e: its quick tables as result.Text prints them, labelled.
func renderDocBlock(e result.Experiment) string {
	var b strings.Builder
	result.Text(&b, e.Tables)
	return "Quick grid, default seed:\n\n```text\n" + strings.TrimPrefix(b.String(), "\n") + "```\n"
}

// TestExperimentsDocShowsQuickGolden holds every marked table block in
// EXPERIMENTS.md to the rendering of that experiment's tables in the
// committed testdata/quick.json, byte for byte. A regenerated golden
// fails it; the failure prints each block to paste.
func TestExperimentsDocShowsQuickGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := result.ParseJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	md, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	// Each match is one marked rendering: the experiment it names and
	// the text between its markers.
	docBlock := regexp.MustCompile(`(?s)<!-- quick\.json: ([a-z0-9-]+) -->\n(.*?)<!-- end -->`)
	blocks := docBlock.FindAllStringSubmatch(string(md), -1)
	if len(blocks) == 0 {
		t.Fatal("EXPERIMENTS.md has no <!-- quick.json: <exp> --> blocks")
	}
	for _, m := range blocks {
		id, got := m[1], m[2]
		i := slices.IndexFunc(doc.Experiments, func(e result.Experiment) bool { return e.ID == id })
		if i < 0 {
			t.Errorf("EXPERIMENTS.md marks %s, which quick.json does not hold", id)
			continue
		}
		if want := renderDocBlock(doc.Experiments[i]); got != want {
			t.Errorf("EXPERIMENTS.md's %s block differs from quick.json; paste this between its markers:\n%s", id, want)
		}
	}
}
