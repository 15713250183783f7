// Package perf defines the repository's performance trajectory
// record — the versioned BENCH_<n>.json schema written by smartbench
// -stats — and the regression gate CI runs against the checked-in
// baseline.
//
// Two kinds of numbers live in a record. Sweep throughput
// (points/sec) measures how fast the harness turns experiment sweep
// points into results; it is what the CI gate protects, because it is
// what contributors feel. Kernel path stats (events/sec and
// allocs/event on the schedule and park/wake hot paths) measure the
// simulation kernel itself; they are recorded so the trajectory across
// PRs is visible in version control, pre/post pairs included.
//
// Everything here is measurement OF the simulator, not simulation:
// this package is exempt from the nowallclock analyzer and its numbers
// never feed a result table. Records are machine- and host-dependent
// by nature; the gate therefore compares only runs produced on the
// same machine (CI baseline vs CI current), never across hosts.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/blade"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// SchemaVersion identifies the record layout. Bump it when fields
// change meaning; the gate refuses to compare across versions.
const SchemaVersion = 1

// Record is one BENCH_<n>.json document.
type Record struct {
	Schema  int  `json:"schema"`
	Bench   int  `json:"bench"` // sequence number: BENCH_7.json has Bench 7
	Workers int  `json:"workers"`
	Quick   bool `json:"quick"`

	Experiments []Experiment `json:"experiments"`

	TotalPoints  int     `json:"total_points"`
	TotalWallMS  int64   `json:"total_wall_ms"`
	PointsPerSec float64 `json:"points_per_sec"`

	// Kernel holds the current kernel hot-path stats; KernelPre, when
	// present, holds the same paths measured before a refactor (the
	// pre/post pair acceptance criteria read).
	Kernel    []PathStats `json:"kernel,omitempty"`
	KernelPre []PathStats `json:"kernel_pre,omitempty"`
}

// Experiment is one experiment's sweep throughput.
type Experiment struct {
	ID           string  `json:"id"`
	Points       int     `json:"points"`
	WallMS       int64   `json:"wall_ms"`
	PointsPerSec float64 `json:"points_per_sec"`
}

// PathStats is one kernel hot path's measured cost.
type PathStats struct {
	Path           string  `json:"path"`
	Events         uint64  `json:"events"`
	EventsPerSec   float64 `json:"events_per_sec"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

// PerSec converts a count and a wall-clock duration in milliseconds
// into a rate, tolerating the sub-millisecond runs quick sweeps
// produce (they round up to 1ms rather than dividing by zero).
func PerSec(count int, wallMS int64) float64 {
	if wallMS <= 0 {
		wallMS = 1
	}
	return float64(count) * 1000 / float64(wallMS)
}

// Load reads a record from path.
func Load(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perf: %s: %v", path, err)
	}
	return &r, nil
}

// Write writes the record to path as indented JSON.
func (r *Record) Write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Gate compares current against baseline and returns a violation
// message per regression: total sweep throughput below (1-tol) of the
// baseline, or any kernel path whose events/sec dropped below the same
// fraction of its baseline entry (paths are matched by name; paths
// only one record has are ignored). A nil baseline gates nothing —
// the first record of a trajectory always passes.
func Gate(baseline, current *Record, tol float64) []string {
	if baseline == nil {
		return nil
	}
	var violations []string
	if baseline.Schema != current.Schema {
		return []string{fmt.Sprintf("schema mismatch: baseline v%d vs current v%d — regenerate the baseline",
			baseline.Schema, current.Schema)}
	}
	floor := 1 - tol
	if baseline.PointsPerSec > 0 && current.PointsPerSec < baseline.PointsPerSec*floor {
		violations = append(violations, fmt.Sprintf(
			"sweep throughput regressed: %.1f points/sec vs baseline %.1f (floor %.1f at tolerance %.0f%%)",
			current.PointsPerSec, baseline.PointsPerSec, baseline.PointsPerSec*floor, tol*100))
	}
	base := map[string]PathStats{}
	for _, p := range baseline.Kernel {
		base[p.Path] = p
	}
	for _, p := range current.Kernel {
		b, ok := base[p.Path]
		if !ok || b.EventsPerSec <= 0 {
			continue
		}
		if p.EventsPerSec < b.EventsPerSec*floor {
			violations = append(violations, fmt.Sprintf(
				"kernel path %q regressed: %.0f events/sec vs baseline %.0f (floor %.0f at tolerance %.0f%%)",
				p.Path, p.EventsPerSec, b.EventsPerSec, b.EventsPerSec*floor, tol*100))
		}
	}
	return violations
}

// MeasureKernel runs the kernel hot-path workloads — the same shapes
// as the internal/sim microbenchmarks — under wall-clock timing and
// allocation accounting, and returns one PathStats per path. Virtual
// work per path is fixed, so the workloads themselves are
// deterministic; only the wall-clock rates vary by host.
func MeasureKernel() []PathStats {
	return []PathStats{
		measure("schedule", runScheduleChurn),
		measure("park-wake", runParkWake),
		measure("mutex-handoff", runMutexHandoff),
		measure("doorbell", runDoorbellBatch),
	}
}

// measure times one workload and keeps the best of three runs — the
// run least disturbed by whatever else the host (or the garbage
// collector, paying down sweep debt from a preceding experiment run)
// was doing. The workload runs once as warmup first; allocations are
// the runtime.MemStats.Mallocs delta over the best run, attributed
// per executed kernel event.
func measure(path string, work func(events int) uint64) PathStats {
	const events = 200_000
	work(events / 10) // warmup: pools filled, slices grown
	var best PathStats
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC() // second cycle retires the first's concurrent sweep work
		runtime.ReadMemStats(&before)
		start := time.Now()
		executed := work(events)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if executed == 0 {
			executed = 1
		}
		if wall <= 0 {
			wall = time.Nanosecond
		}
		s := PathStats{
			Path:           path,
			Events:         executed,
			EventsPerSec:   float64(executed) / wall.Seconds(),
			NsPerEvent:     float64(wall.Nanoseconds()) / float64(executed),
			AllocsPerEvent: float64(after.Mallocs-before.Mallocs) / float64(executed),
		}
		if i == 0 || s.EventsPerSec > best.EventsPerSec {
			best = s
		}
	}
	return best
}

// runScheduleChurn keeps a window of self-rescheduling timers live —
// every fire pays one push and one pop against a loaded event heap.
// Returns the number of kernel events executed.
func runScheduleChurn(events int) uint64 {
	e := sim.New(1)
	defer e.Stop()
	window := 256
	if window > events {
		window = events
	}
	reschedules := events - window
	fired := 0
	fns := make([]func(), window)
	for i := range fns {
		d := sim.Time(1+i*37%199) * sim.Nanosecond
		fns[i] = func() {
			fired++
			if fired <= reschedules {
				e.Schedule(d, fns[i])
			}
		}
	}
	for i := range fns {
		e.Schedule(sim.Time(i%13)*sim.Nanosecond, fns[i])
	}
	e.Run(0)
	return e.Events()
}

// runParkWake is the same-timestamp park/wake baton: one process
// sleeping zero in a loop, the path every CQE delivery rides.
func runParkWake(events int) uint64 {
	e := sim.New(1)
	n := 0
	e.Go("spinner", func(p *sim.Proc) {
		for n < events {
			n++
			p.Sleep(0)
		}
	})
	e.Run(0)
	ev := e.Events()
	e.Stop()
	return ev
}

// runDoorbellBatch drives the chained submission path end to end:
// eight client processes, each with its own QP over the shared medium
// doorbells, posting 16-deep READ postlists and draining their CQs.
// This is the verbs-layer hot path the WR-batching work optimizes —
// one doorbell ring and one QP lock acquisition per chain — measured
// above the raw kernel primitives so a regression in the chain
// bookkeeping itself (and not just in park/wake underneath) moves a
// tracked number.
func runDoorbellBatch(events int) uint64 {
	const chain = 16
	e := sim.New(1)
	cn := rnic.New(e, "compute", rnic.Default())
	mn := rnic.New(e, "memory", rnic.Default())
	mem := blade.New(1, blade.DRAM, 1<<20)
	ctx := verbs.Open(cn)
	tgt := verbs.Target{NIC: mn, Mem: mem}
	region := mem.Alloc(chain * 8)
	target := uint64(events)
	for i := 0; i < 8; i++ {
		e.Go("poster", func(p *sim.Proc) {
			cq := ctx.CreateCQ()
			qp := ctx.CreateQP(cq, tgt)
			wrs := make([]*verbs.WR, chain)
			bufs := make([][]byte, chain)
			for j := range bufs {
				bufs[j] = make([]byte, 8)
			}
			for e.Events() < target {
				for j := range wrs {
					wrs[j] = verbs.Read(region.Add(uint64(j)*8), bufs[j])
				}
				qp.PostList(p, wrs...)
				cq.Recycle(cq.WaitN(p, chain))
			}
		})
	}
	e.Run(0)
	ev := e.Events()
	e.Stop()
	return ev
}

// runMutexHandoff hammers one FCFS mutex with eight processes — the
// doorbell-spinlock contention pattern.
func runMutexHandoff(events int) uint64 {
	e := sim.New(1)
	m := sim.NewMutex(e)
	total := 0
	for i := 0; i < 8; i++ {
		e.Go("locker", func(p *sim.Proc) {
			for {
				m.Lock(p)
				if total >= events {
					m.Unlock()
					return
				}
				total++
				p.Sleep(0)
				m.Unlock()
			}
		})
	}
	e.Run(0)
	ev := e.Events()
	e.Stop()
	return ev
}
