package ford

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestReadOnlyTxnDoesNotBumpVersions(t *testing.T) {
	cl := newCluster(t)
	sb := NewSmallBank(cl.Targets(), 50)
	sb.Load()
	before := sb.DB.VersionDirect("savings", 7)
	runOne(t, cl, 1, func(_ int, c *core.Ctx) {
		for sb.exec(c, sbBalance, 7, 8, 0) != nil {
		}
	})
	if after := sb.DB.VersionDirect("savings", 7); after != before {
		t.Fatalf("read-only txn bumped version %d -> %d", before, after)
	}
}

func TestCommittedWriteBumpsVersionOnce(t *testing.T) {
	cl := newCluster(t)
	db := NewDB(cl.Targets(), []TableSpec{{Name: "t", Records: 4, Payload: 8}})
	db.LoadDirect("t", 0, PutU64(1))
	runOne(t, cl, 1, func(_ int, c *core.Ctx) {
		tx := db.Begin(c)
		v, _ := tx.ReadForUpdate("t", 0)
		tx.Write("t", 0, PutU64(U64(v)+1))
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	if v := db.VersionDirect("t", 0); v != 2 {
		t.Fatalf("version = %d, want 2", v)
	}
}

func TestBackupReplicaInstalled(t *testing.T) {
	cl := newCluster(t)
	db := NewDB(cl.Targets(), []TableSpec{{Name: "t", Records: 4, Payload: 8}})
	db.LoadDirect("t", 0, PutU64(5))
	runOne(t, cl, 1, func(_ int, c *core.Ctx) {
		tx := db.Begin(c)
		tx.ReadForUpdate("t", 0)
		tx.Write("t", 0, PutU64(42))
		tx.Commit()
	})
	bk := db.backupAddr("t", 0)
	if bk.IsNil() {
		t.Fatal("no backup with 2 blades")
	}
	mem := cl.Memories[bk.Blade-1].Mem
	if got := mem.Load8(bk.Offset + recHdr); got != 42 {
		t.Fatalf("backup payload = %d, want 42", got)
	}
	if got := mem.Load8(bk.Offset + 8); got != 2 {
		t.Fatalf("backup version = %d, want 2", got)
	}
	// Backup lives on a different blade than the primary.
	pri, _ := db.recordAddr("t", 0)
	if pri.Blade == bk.Blade {
		t.Fatal("backup on same blade as primary")
	}
}

func TestLogRegionWraps(t *testing.T) {
	l := &logRegion{size: 100}
	a := l.next(40)
	b := l.next(40)
	if a == b {
		t.Fatal("log entries overlap")
	}
	// The wrap reuses a's bytes, so a's transaction must have finished.
	l.release(a)
	cNext := l.next(40) // 120 > 100: wraps to 0
	if cNext != a {
		t.Fatalf("expected wraparound to start, got %#x", cNext)
	}
	if l.laps != 1 {
		t.Fatalf("laps = %d, want 1", l.laps)
	}
}

// TestLogRegionGuard pins the ring's two loud failures: a wrap onto an
// entry whose transaction has not finished, and an entry larger than
// the ring. Both name the thread and the blade.
func TestLogRegionGuard(t *testing.T) {
	mustPanic := func(t *testing.T, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			msg, _ := r.(string)
			if r == nil {
				t.Fatal("no panic")
			}
			for _, w := range []string{"thread 3", "blade 2", want} {
				if !strings.Contains(msg, w) {
					t.Fatalf("panic %q does not name %q", msg, w)
				}
			}
		}()
		f()
	}
	ring := func() *logRegion { return &logRegion{key: logKey{thread: 3, blade: 2}, size: 300} }

	t.Run("WrapOntoLive", func(t *testing.T) {
		l := ring()
		l.next(100)
		l.next(100)
		mustPanic(t, "[0, 150) overlaps [0, 100)", func() { l.next(150) })
	})
	t.Run("WrapPastFreedOntoLive", func(t *testing.T) {
		l := ring()
		a := l.next(100)
		l.next(100)
		l.release(a)
		if c := l.next(100); c != 200 {
			t.Fatalf("third entry at %d, want 200", c)
		}
		mustPanic(t, "[0, 150) overlaps [100, 200)", func() { l.next(150) })
	})
	t.Run("EntryLargerThanRing", func(t *testing.T) {
		mustPanic(t, "larger than its 300 B ring", func() { ring().next(301) })
	})
	t.Run("FreedBytesAreReused", func(t *testing.T) {
		l := ring()
		for i := 0; i < 30; i++ { // ten laps, one live entry at a time
			l.release(l.next(100))
		}
		if l.laps != 9 || len(l.live) != 0 {
			t.Fatalf("laps = %d, live = %v; want 9 laps and nothing live", l.laps, l.live)
		}
	})
}

func TestWriteWithoutLockPanics(t *testing.T) {
	cl := newCluster(t)
	db := NewDB(cl.Targets(), []TableSpec{{Name: "t", Records: 4, Payload: 8}})
	runOne(t, cl, 1, func(_ int, c *core.Ctx) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for Write without ReadForUpdate")
			}
		}()
		tx := db.Begin(c)
		tx.Write("t", 0, PutU64(1))
	})
}

func TestPayloadSizeMismatchPanics(t *testing.T) {
	cl := newCluster(t)
	db := NewDB(cl.Targets(), []TableSpec{{Name: "t", Records: 4, Payload: 16}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	db.LoadDirect("t", 0, PutU64(1)) // 8 bytes into a 16-byte payload
}

func TestSmallBankMixRoughlyStandard(t *testing.T) {
	cl := newCluster(t)
	sb := NewSmallBank(cl.Targets(), 100)
	rng := rand.New(rand.NewSource(1))
	counts := map[int]int{}
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[sb.pick(rng)]++
	}
	want := map[int]float64{
		sbAmalgamate: 0.15, sbBalance: 0.15, sbDepositChecking: 0.15,
		sbSendPayment: 0.25, sbTransactSavings: 0.15, sbWriteCheck: 0.15,
	}
	for k, frac := range want {
		got := float64(counts[k]) / draws
		if got < frac-0.01 || got > frac+0.01 {
			t.Errorf("txn %d fraction = %.3f, want %.2f", k, got, frac)
		}
	}
}

func TestTATPMixIsEightyPercentReadOnly(t *testing.T) {
	cl := newCluster(t)
	tp := NewTATP(cl.Targets(), 100)
	rng := rand.New(rand.NewSource(2))
	ro := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		switch tp.pick(rng) {
		case tatpGetSubscriberData, tatpGetNewDestination, tatpGetAccessData:
			ro++
		}
	}
	frac := float64(ro) / draws
	if frac < 0.78 || frac > 0.82 {
		t.Fatalf("read-only fraction = %.3f, want ≈0.80", frac)
	}
}

func TestHotspotDistribution(t *testing.T) {
	cl := newCluster(t)
	sb := NewSmallBank(cl.Targets(), 10_000)
	rng := rand.New(rand.NewSource(3))
	hot := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if sb.account(rng) < sb.HotN {
			hot++
		}
	}
	frac := float64(hot) / draws
	// HotProb of picks land on HotN accounts plus the uniform tail's
	// share (HotN/N of the remaining 75%).
	want := sb.HotProb + (1-sb.HotProb)*float64(sb.HotN)/float64(sb.N)
	if frac < want-0.02 || frac > want+0.02 {
		t.Fatalf("hot fraction = %.3f, want ≈%.3f", frac, want)
	}
}

func TestSingleBladeHasNoBackups(t *testing.T) {
	cl := newClusterN(t, 1)
	db := NewDB(cl.Targets(), []TableSpec{{Name: "t", Records: 4, Payload: 8}})
	if !db.backupAddr("t", 0).IsNil() {
		t.Fatal("single-blade DB created backups")
	}
}
