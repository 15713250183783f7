package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// aaRuns is how many -trace 0 runs (seeds 1..aaRuns) each set of the
// A/A check makes per workload: the driver's count.
const aaRuns = 10

// runAA is the A/A check: the same code measured twice must agree with
// itself. Each workload runs in its own child process (so peak_rss_mb
// is per workload) for seeds 1..aaRuns plus one -trace 1 run on seed 1,
// in two back-to-back sets. It prints every run's values, then per
// workload and end-to-end metric both medians, how much worse the
// second is than the first, and each set's spread (inter-quartile
// distance over the median), beside the bound. A metric breaches when the second median is worse by more
// than the bound or a spread exceeds it (setup_s: medians only). An
// exact metric — simulated or counted, end-to-end or per-layer — also
// breaches when any seed's value differs between the sets at all; its
// spread is its variation across seeds.
func runAA(seconds float64, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	// child runs one workload in a fresh process and returns the metrics
	// of its result line.
	child := func(workload string, seed, trace int) (map[string]float64, error) {
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stderr = stderr
		outBytes, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
		}
		lines := bytes.Split(bytes.TrimSpace(outBytes), []byte("\n"))
		var res struct {
			Metrics map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s seed %d trace %d: bad result line: %w", workload, seed, trace, err)
		}
		values := map[string]float64{}
		for name, m := range res.Metrics {
			values[name] = m.Value
		}
		return values, nil
	}

	breaches := 0
	for _, w := range workloads() {
		var sets [2]map[string][]float64
		var traced [2]map[string]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for seed := 1; seed <= aaRuns; seed++ {
				values, err := child(w.name, seed, 0)
				if err != nil {
					fmt.Fprintf(stderr, "e2ebench: set %d: %v\n", set+1, err)
					return 1
				}
				fmt.Fprintf(stdout, "%s set %d seed %d:", w.name, set+1, seed)
				for _, d := range endToEnd() {
					sets[set][d.name] = append(sets[set][d.name], values[d.name])
					fmt.Fprintf(stdout, " %s=%.6g", d.name, values[d.name])
				}
				fmt.Fprintln(stdout)
			}
			if traced[set], err = child(w.name, 1, 1); err != nil {
				fmt.Fprintf(stderr, "e2ebench: set %d: %v\n", set+1, err)
				return 1
			}
		}
		fmt.Fprintf(stdout, "%-14s %-18s %12s %12s %8s %8s %8s %6s\n", w.name, "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound")
		for _, d := range endToEnd() {
			a, b := sets[0][d.name], sets[1][d.name]
			q1a, ma, q3a := quartiles(a)
			q1b, mb, q3b := quartiles(b)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := (q3a-q1a)/ma, (q3b-q1b)/mb
			verdict := ""
			switch {
			case worse > d.bound:
				verdict = "BREACH: second set worse than the bound"
			case d.name != "setup_s" && (spreadA > d.bound || spreadB > d.bound):
				verdict = "BREACH: spread wider than the bound"
			case d.exact:
				for i := range a {
					if a[i] != b[i] {
						verdict = fmt.Sprintf("BREACH: seed %d differs between sets", i+1)
					}
				}
			}
			if verdict != "" {
				breaches++
			}
			fmt.Fprintf(stdout, "%-14s %-18s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%% %s\n",
				"", d.name, ma, mb, 100*worse, 100*spreadA, 100*spreadB, 100*d.bound, verdict)
		}
		exact, differ := 0, 0
		for _, d := range perLayer() {
			if !d.exact {
				continue
			}
			exact++
			if a, b := traced[0][d.name], traced[1][d.name]; a != b {
				differ++
				fmt.Fprintf(stdout, "%-14s %-18s %12.6g %12.6g BREACH: exact per-layer metric differs between sets\n", "", d.name, a, b)
			}
		}
		breaches += differ
		fmt.Fprintf(stdout, "%-14s %d of %d exact per-layer metrics identical between sets (-trace 1, seed 1)\n", "", exact-differ, exact)
	}
	if breaches > 0 {
		fmt.Fprintf(stdout, "A/A: %d breaches\n", breaches)
		return 1
	}
	fmt.Fprintln(stdout, "A/A: every metric within its bound")
	return 0
}
