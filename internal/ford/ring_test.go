package ford

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// runWorkload loads SmallBank or TATP with the given records and runs
// its mix on threads × Depth coroutines under opts for window of
// simulated time. It returns the database, whose rings the guard in
// logRegion.next watched at every commit.
func runWorkload(t *testing.T, tatp bool, records uint64, threads int, opts core.Options, window sim.Time) (*cluster.Cluster, *DB) {
	t.Helper()
	cl := newCluster(t)
	var db *DB
	var run func(*core.Ctx, *rand.Rand) int
	if tatp {
		tp := NewTATP(cl.Targets(), records)
		tp.Load()
		db, run = tp.DB, tp.RunOne
	} else {
		sb := NewSmallBank(cl.Targets(), records)
		sb.Load()
		db, run = sb.DB, sb.RunOne
	}
	rt := core.MustNew(cl.Computes[0].NIC, cl.Targets(), threads, opts)
	t.Cleanup(rt.Stop)
	for ti := 0; ti < threads; ti++ {
		for d := 0; d < rt.Options().Depth; d++ {
			rng := rand.New(rand.NewSource(int64(ti)*1_021 + int64(d)*19 + 1))
			rt.Thread(ti).Spawn("tx", func(c *core.Ctx) {
				for {
					run(c, rng)
				}
			})
		}
	}
	cl.Eng.Run(window)
	return cl, db
}

// TestUndoRingsHoldAtFigureShapes runs SmallBank and TATP at the shapes
// fig10 and fig11 sweep: 8, 48 and 96 threads of Depth coroutines each,
// FORD+ and SMART-DTX, on the benchmarks' 100 000 records. No commit
// may trip the ring guard. A ring can overlap a live entry only by
// wrapping, so at 8 threads every ring must have wrapped, or the guard
// watched nothing there.
func TestUndoRingsHoldAtFigureShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twelve workload points")
	}
	for _, tatp := range []bool{false, true} {
		for _, sys := range []struct {
			name string
			opts core.Options
		}{{"FORD+", core.Baseline(core.PerThreadQP)}, {"SMART-DTX", core.Smart()}} {
			for _, threads := range []int{8, 48, 96} {
				name := "SmallBank"
				if tatp {
					name = "TATP"
				}
				t.Run(fmt.Sprintf("%s/%s/thr=%d", name, sys.name, threads), func(t *testing.T) {
					_, db := runWorkload(t, tatp, 100_000, threads, sys.opts, 8*sim.Millisecond)
					if len(db.logs) == 0 {
						t.Fatal("no transaction wrote an undo log")
					}
					laps, still := 0, 0
					for _, l := range db.logs {
						laps += l.laps
						if l.laps == 0 {
							still++
						}
					}
					t.Logf("%d rings wrapped %d times in all", len(db.logs), laps)
					// FORD+ at 48 and 96 threads is too slow to wrap in the
					// window; at 8 threads every point wraps every ring.
					if threads == 8 && still > 0 {
						t.Errorf("%d of %d rings never wrapped; lengthen the window", still, len(db.logs))
					}
				})
			}
		}
	}
}

// TestUndoRingsFootprint pins what a point's undo rings cost in host
// memory. Each (thread, blade) ring is 16 KiB and the rings of a blade
// are allocated back to back after every table, so after a short
// SmallBank run the pages committed at or above the first ring's base
// number at most ⌈rings × 16 KiB / 64 KiB⌉ + 1 per blade (the +1: the
// first ring may start inside the tables' last page).
func TestUndoRingsFootprint(t *testing.T) {
	const ringBytes, pageBytes = 16 << 10, 64 << 10 // blade pages are 64 KiB
	cl, db := runWorkload(t, false, 1_000, 48, core.Smart(), sim.Millisecond)
	for _, tgt := range cl.Targets() {
		mem := tgt.Mem
		rings, first := 0, uint64(0)
		for k, l := range db.logs {
			if k.blade != mem.ID {
				continue
			}
			if rings == 0 || l.base.Offset < first {
				first = l.base.Offset
			}
			rings++
		}
		if rings != 48 {
			t.Fatalf("blade %d has %d rings, want one per thread", mem.ID, rings)
		}
		// Commit every page below the first ring by writing its bytes
		// back unchanged, so the pages at or above it are the rest.
		mem.Write(8, mem.Read(8, int(first-8)))
		got := mem.Pages() - int(first/pageBytes)
		if limit := (rings*ringBytes+pageBytes-1)/pageBytes + 1; got > limit {
			t.Errorf("blade %d: %d rings commit %d pages, want at most %d", mem.ID, rings, got, limit)
		}
	}
}
