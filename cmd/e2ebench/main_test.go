package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the driver's contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declared `json:"end_to_end"`
	PerLayer   []declared `json:"per_layer"`
}

type declared struct {
	Name, Unit, Better string
	Bound              float64
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclarationsMatchBenchmarkJSON keeps the two copies of the
// workload and metric lists — the program's and the driver's — equal.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/e2ebench" {
		t.Errorf("paths = %v, want [cmd/e2ebench]", b.Paths)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, b.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []declared, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (declared{d.name, d.unit, d.better, d.bound}) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd())
	check("per_layer", b.PerLayer, perLayer())
}

// TestSmoke runs every workload's -trace 0 and -trace 1 run on the
// smoke shapes and checks the output contract: every declared metric
// printed exactly once with its unit, well-formed names, a final JSON
// line with exactly the declared metrics, and no failed point — which
// includes every zero-horizon twin returning zero ops.
func TestSmoke(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for trace, defs := range [][]declared{b.EndToEnd, b.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", []string{"0", "1"}[trace], "-smoke"}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")

			printed := map[string][]string{} // metric name → units it was printed with
			for _, line := range lines[:len(lines)-1] {
				if f := strings.Fields(line); len(f) >= 3 {
					printed[f[0]] = append(printed[f[0]], f[2])
				}
			}
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line is not the result object: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%v: result has %d metrics, %d declared", args, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if !nameRE.MatchString(d.Name) {
					t.Errorf("metric name %q is malformed", d.Name)
				}
				if units := printed[d.Name]; len(units) != 1 || units[0] != d.Unit {
					t.Errorf("%v: %s printed with units %v, want exactly once with %q", args, d.Name, units, d.Unit)
				}
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%v: result metric %s = %+v, want unit %q", args, d.Name, m, d.Unit)
				}
			}
		}
	}
}

// TestQuartiles pins the helper to Python's
// statistics.quantiles(values, n=4), the rule the driver applies.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 4, 8, 16}, [3]float64{1.5, 4, 12}},
	} {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
