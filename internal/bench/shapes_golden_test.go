package bench

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/result"
)

// TestShapeChecksOnGoldens judges both check lists on the committed
// quick goldens, with no sweep run: every check must hold, which brings
// the experiments go test does not run (fig7, fig8, tab1) under the
// check too. It then pins the drop-one property of DESIGN.md §9: a check
// reads a series when setting one of its points to +Inf or -Inf fails
// the check, and dropping any series a check reads must fail that check
// as missing data, so a renamed series cannot pass the gate. The one
// allowance is a check that reads every series of a table, such as a
// maximum over the whole table: removing one series leaves a smaller
// table it still judges, so for it, emptying the table must fail the
// check instead. Every check must read some point: a check no point
// can move pins nothing about its data.
func TestShapeChecksOnGoldens(t *testing.T) {
	for _, g := range []struct {
		file   string
		checks []shapeCheck
		judge  func(string, []result.Table) []Verdict
	}{
		{"quick.json", shapeChecks, Check},
		{"quick_telemetry.json", telemetryShapeChecks, CheckTelemetry},
	} {
		t.Run(g.file, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			doc, err := result.ParseJSON(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range g.checks {
				if !slices.ContainsFunc(doc.Experiments, func(e result.Experiment) bool { return e.ID == c.exp }) {
					t.Errorf("%s: %s has no %s experiment to judge", c.name, g.file, c.exp)
				}
			}
			for _, e := range doc.Experiments {
				// failed returns the failing checks' details by name.
				failed := func(tables []result.Table) map[string]string {
					out := map[string]string{}
					for _, v := range g.judge(e.ID, tables) {
						if v.Detail != "" {
							out[v.Check] = v.Detail
						}
					}
					return out
				}
				var names []string
				for _, c := range g.checks {
					if c.exp == e.ID {
						names = append(names, c.name)
					}
				}
				fails := failed(e.Tables)
				for _, name := range names {
					if fails[name] != "" {
						t.Errorf("%s fails on %s: %s", name, g.file, fails[name])
					}
				}
				dropOneFails(t, e.Tables, names, failed)
			}
		})
	}
}

// seriesRef names one series of a table list by position.
type seriesRef struct{ table, series int }

// dropOneFails asserts the drop-one property for the named checks over
// one experiment's tables, which all of them pass; failed judges the
// experiment's checks over a table list.
func dropOneFails(t *testing.T, tables []result.Table, names []string, failed func([]result.Table) map[string]string) {
	t.Helper()
	reads := map[seriesRef]map[string]bool{}
	for ti := range tables {
		for si := range tables[ti].Series {
			ref := seriesRef{ti, si}
			reads[ref] = map[string]bool{}
			pts := tables[ti].Series[si].Points
			for pi := range pts {
				keep := pts[pi].Value
				for _, bad := range []float64{math.Inf(1), math.Inf(-1)} {
					pts[pi].Value = bad
					for name := range failed(tables) {
						reads[ref][name] = true
					}
				}
				pts[pi].Value = keep
			}
		}
	}
	for _, name := range names {
		read := false
		for ti, tb := range tables {
			wholeTable := true
			for si := range tb.Series {
				wholeTable = wholeTable && reads[seriesRef{ti, si}][name]
			}
			for si, s := range tb.Series {
				if !reads[seriesRef{ti, si}][name] {
					continue
				}
				read = true
				if strings.HasPrefix(failed(withSeries(tables, ti, slices.Delete(slices.Clone(tb.Series), si, si+1)))[name], "missing data") {
					continue
				}
				if wholeTable && failed(withSeries(tables, ti, nil))[name] != "" {
					continue
				}
				t.Errorf("%s: dropping the series it reads, %s[%s], is not reported as missing data", name, tb.ID, s.Name)
			}
		}
		if !read {
			t.Errorf("%s: no point of any table moves its verdict", name)
		}
	}
}

// withSeries returns a copy of tables whose table ti holds series.
func withSeries(tables []result.Table, ti int, series []result.Series) []result.Table {
	out := slices.Clone(tables)
	out[ti].Series = series
	return out
}
