package ford

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestRunOneAllocsZero pins SmallBank and TATP transactions at zero
// heap allocations in steady state: attempts reuse a finished Tx, staged
// payloads are op-scoped Bufs, and the WRs come from the coroutine's
// free list. Four coroutines contend on the hot keys, so retried
// attempts and the Abort path are measured too.
func TestRunOneAllocsZero(t *testing.T) {
	for _, w := range []struct {
		name string
		load func(cl *cluster.Cluster) (*DB, func(*core.Ctx, *rand.Rand) int)
	}{
		{"SmallBank", func(cl *cluster.Cluster) (*DB, func(*core.Ctx, *rand.Rand) int) {
			sb := NewSmallBank(cl.Targets(), 200)
			sb.Load()
			return sb.DB, sb.RunOne
		}},
		{"TATP", func(cl *cluster.Cluster) (*DB, func(*core.Ctx, *rand.Rand) int) {
			tp := NewTATP(cl.Targets(), 50)
			tp.Load()
			return tp.DB, tp.RunOne
		}},
	} {
		t.Run(w.name, func(t *testing.T) {
			cl := newCluster(t)
			db, runOne := w.load(cl)
			rt := core.MustNew(cl.Computes[0].NIC, cl.Targets(), 1, core.Smart())
			t.Cleanup(rt.Stop)
			// Commit every page of each undo-log ring up front (writing
			// its bytes back unchanged): a blade allocates a page on its
			// first write, which a long run pays once and a short window
			// would count against the op path.
			for _, tgt := range db.Targets() {
				l := db.logFor(rt.Thread(0).ID, tgt.Mem.ID)
				tgt.Mem.Write(l.base.Offset, tgt.Mem.Read(l.base.Offset, int(l.size)))
			}
			const coros = 4
			aborts := 0
			for i := 0; i < coros; i++ {
				rng := rand.New(rand.NewSource(int64(i) + 1))
				rt.Thread(0).Spawn("tx", func(c *core.Ctx) {
					for {
						aborts += runOne(c, rng)
					}
				})
			}
			// The warm-up grows the free lists, the arena and the read
			// and write sets to their steady-state sizes.
			const window = 2 * sim.Millisecond
			now := cl.Eng.Run(10 * sim.Millisecond)
			ops, abortsBefore := rt.Thread(0).Stats.Ops, aborts
			// AllocsPerRun calls f once more as its own warm-up.
			allocs := testing.AllocsPerRun(1, func() {
				now = cl.Eng.Run(now + window)
			})
			txns := rt.Thread(0).Stats.Ops - ops
			if txns < 100 {
				t.Fatalf("%d transactions in two windows, want a steady stream", txns)
			}
			if w.name == "SmallBank" && aborts == abortsBefore {
				t.Error("no attempt aborted in the window; the retry path went unmeasured")
			}
			if allocs != 0 {
				t.Errorf("%v allocs over %d transactions, want 0", allocs, txns/2)
			}
		})
	}
}

// TestFinishedTxIsReset pins the reuse contract of DB.Begin: a Tx
// handed out again after Commit or Abort starts with empty read and
// write sets, so read-own-writes cannot serve the previous attempt's
// staged payload.
func TestFinishedTxIsReset(t *testing.T) {
	cl := newCluster(t)
	db := NewDB(cl.Targets(), []TableSpec{{Name: "t", Records: 4, Payload: 8}})
	db.LoadDirect("t", 1, PutU64(7))
	runOne(t, cl, 1, func(_ int, c *core.Ctx) {
		for _, end := range []string{"Commit", "Abort"} {
			tx := db.Begin(c)
			if _, err := tx.Read("t", 2); err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if _, err := tx.ReadForUpdate("t", 1); err != nil {
				t.Errorf("lock: %v", err)
				return
			}
			tx.Write("t", 1, PutU64(99))
			var err error
			if end == "Commit" {
				err = tx.Commit()
			} else {
				tx.Abort()
			}
			if err != nil {
				t.Errorf("%s: %v", end, err)
				return
			}

			again := db.Begin(c)
			if again != tx {
				t.Errorf("after %s: Begin did not reuse the finished Tx", end)
				return
			}
			if len(again.rs) != 0 || len(again.ws) != 0 || again.done {
				t.Errorf("after %s: reused Tx has %d reads, %d writes, done=%v",
					end, len(again.rs), len(again.ws), again.done)
				return
			}
			for k, l := range db.logs {
				if len(l.live) != 0 {
					t.Errorf("after %s: ring %+v still holds %d live entries", end, k, len(l.live))
					return
				}
			}
			for _, e := range again.ws[:cap(again.ws)] {
				if e.data != nil || e.newData != nil {
					t.Errorf("after %s: a cleared write-set slot still references a payload", end)
					return
				}
			}
			v, err := again.Read("t", 1)
			if err != nil {
				t.Errorf("after %s: read: %v", end, err)
				return
			}
			want := uint64(7)
			if end == "Commit" {
				want = 99
			}
			if U64(v) != want {
				t.Errorf("after %s: read %d, want %d from the record, not a staged payload", end, U64(v), want)
			}
			if err := again.Commit(); err != nil {
				t.Errorf("after %s: read-only commit: %v", end, err)
				return
			}
			db.LoadDirect("t", 1, PutU64(7))
		}
	})
}
