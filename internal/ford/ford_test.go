package ford

import (
	"math/rand"
	"testing"

	"repro/internal/blade"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

func newCluster(t *testing.T) *cluster.Cluster { return newClusterN(t, 2) }

func newClusterN(t *testing.T, blades int) *cluster.Cluster {
	t.Helper()
	cl := cluster.New(cluster.Config{
		ComputeBlades: 1,
		MemoryBlades:  blades,
		MemoryKind:    blade.NVM,
		BladeCapacity: 64 << 20,
		Seed:          777,
	})
	t.Cleanup(cl.Stop)
	return cl
}

func runOne(t *testing.T, cl *cluster.Cluster, threads int, fn func(ti int, c *core.Ctx)) {
	t.Helper()
	rt := core.MustNew(cl.Computes[0].NIC, cl.Targets(), threads, core.Smart())
	done := 0
	for i := 0; i < threads; i++ {
		rt.Thread(i).Spawn("tx", func(c *core.Ctx) {
			fn(i, c)
			done++
		})
	}
	cl.Eng.Run(60 * sim.Second)
	rt.Stop()
	if done != threads {
		t.Fatalf("finished %d/%d workers", done, threads)
	}
}

func TestDBLayoutAndDirectIO(t *testing.T) {
	cl := newCluster(t)
	db := NewDB(cl.Targets(), []TableSpec{{Name: "t", Records: 100, Payload: 16}})
	pay := make([]byte, 16)
	copy(pay, "hello world.....")
	db.LoadDirect("t", 42, pay)
	if got := string(db.ReadDirect("t", 42)); got != string(pay) {
		t.Fatalf("ReadDirect = %q", got)
	}
	if v := db.VersionDirect("t", 42); v != 1 {
		t.Fatalf("version = %d", v)
	}
	// Keys stripe across blades.
	a0, _ := db.recordAddr("t", 0)
	a1, _ := db.recordAddr("t", 1)
	if a0.Blade == a1.Blade {
		t.Fatal("adjacent keys on same blade; expected striping")
	}
}

func TestBadSchemaPanics(t *testing.T) {
	cl := newCluster(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unaligned payload")
		}
	}()
	NewDB(cl.Targets(), []TableSpec{{Name: "x", Records: 1, Payload: 7}})
}

func TestCommitReadWrite(t *testing.T) {
	cl := newCluster(t)
	db := NewDB(cl.Targets(), []TableSpec{{Name: "acct", Records: 10, Payload: 8}})
	for k := uint64(0); k < 10; k++ {
		db.LoadDirect("acct", k, PutU64(100))
	}
	runOne(t, cl, 1, func(_ int, c *core.Ctx) {
		tx := db.Begin(c)
		v, err := tx.ReadForUpdate("acct", 3)
		if err != nil {
			t.Errorf("lock: %v", err)
			return
		}
		tx.Write("acct", 3, PutU64(U64(v)+50))
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	if got := U64(db.ReadDirect("acct", 3)); got != 150 {
		t.Fatalf("balance = %d, want 150", got)
	}
	if v := db.VersionDirect("acct", 3); v != 2 {
		t.Fatalf("version = %d, want 2", v)
	}
	// Lock released.
	addr, _ := db.recordAddr("acct", 3)
	if cl.Memories[addr.Blade-1].Mem.Load8(addr.Offset) != 0 {
		t.Fatal("lock word not cleared after commit")
	}
}

func TestAbortReleasesLocks(t *testing.T) {
	cl := newCluster(t)
	db := NewDB(cl.Targets(), []TableSpec{{Name: "acct", Records: 4, Payload: 8}})
	db.LoadDirect("acct", 1, PutU64(5))
	runOne(t, cl, 1, func(_ int, c *core.Ctx) {
		tx := db.Begin(c)
		if _, err := tx.ReadForUpdate("acct", 1); err != nil {
			t.Errorf("lock: %v", err)
			return
		}
		tx.Abort()
	})
	addr, _ := db.recordAddr("acct", 1)
	if cl.Memories[addr.Blade-1].Mem.Load8(addr.Offset) != 0 {
		t.Fatal("abort left the lock held")
	}
	if got := U64(db.ReadDirect("acct", 1)); got != 5 {
		t.Fatalf("aborted tx changed data: %d", got)
	}
}

func TestLockConflictReturnsErrConflict(t *testing.T) {
	cl := newCluster(t)
	db := NewDB(cl.Targets(), []TableSpec{{Name: "acct", Records: 4, Payload: 8}})
	db.LoadDirect("acct", 0, PutU64(1))
	// Pre-lock the record directly.
	addr, _ := db.recordAddr("acct", 0)
	cl.Memories[addr.Blade-1].Mem.Store8(addr.Offset, 999)
	runOne(t, cl, 1, func(_ int, c *core.Ctx) {
		tx := db.Begin(c)
		if _, err := tx.ReadForUpdate("acct", 0); err != ErrConflict {
			t.Errorf("ReadForUpdate on locked record: %v", err)
		}
		tx.Abort()
		tx2 := db.Begin(c)
		if _, err := tx2.Read("acct", 0); err != ErrConflict {
			t.Errorf("Read of locked record: %v", err)
		}
		tx2.Abort()
	})
}

func TestValidationAbortsOnVersionChange(t *testing.T) {
	cl := newCluster(t)
	db := NewDB(cl.Targets(), []TableSpec{{Name: "acct", Records: 4, Payload: 8}})
	db.LoadDirect("acct", 2, PutU64(7))
	addr, _ := db.recordAddr("acct", 2)
	mem := cl.Memories[addr.Blade-1].Mem
	runOne(t, cl, 1, func(_ int, c *core.Ctx) {
		tx := db.Begin(c)
		if _, err := tx.Read("acct", 2); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		mem.Store8(addr.Offset+8, 99) // concurrent writer bumps version
		if err := tx.Commit(); err != ErrConflict {
			t.Errorf("Commit after version change: %v, want ErrConflict", err)
		}
	})
}

func TestSmallBankConservation(t *testing.T) {
	cl := newCluster(t)
	sb := NewSmallBank(cl.Targets(), 200)
	sb.Load()
	before := sb.TotalDirect()
	totalAborts := 0
	runOne(t, cl, 4, func(ti int, c *core.Ctx) {
		rng := rand.New(rand.NewSource(int64(ti) + 1))
		for i := 0; i < 40; i++ {
			totalAborts += sb.RunOne(c, rng)
		}
	})
	after := sb.TotalDirect()
	// Deposits/withdrawals change totals; conservation holds only for
	// SendPayment and Amalgamate. Instead verify integrity: every lock
	// is released and versions are consistent.
	for k := uint64(0); k < 200; k++ {
		for _, tab := range []string{"savings", "checking"} {
			addr, _ := sb.DB.recordAddr(tab, k)
			if cl.Memories[addr.Blade-1].Mem.Load8(addr.Offset) != 0 {
				t.Fatalf("%s[%d] lock leaked", tab, k)
			}
		}
	}
	if before == 0 || after == 0 {
		t.Fatal("balances vanished")
	}
	t.Logf("smallbank: total %d -> %d, aborts=%d", before, after, totalAborts)
}

func TestSmallBankSendPaymentConserves(t *testing.T) {
	cl := newCluster(t)
	sb := NewSmallBank(cl.Targets(), 100)
	sb.Load()
	before := sb.TotalDirect()
	runOne(t, cl, 6, func(ti int, c *core.Ctx) {
		rng := rand.New(rand.NewSource(int64(ti) * 7))
		for i := 0; i < 30; i++ {
			a := sb.account(rng)
			b := sb.account(rng)
			if a == b {
				continue
			}
			for sb.exec(c, sbSendPayment, a, b, 10) != nil {
			}
		}
	})
	if after := sb.TotalDirect(); after != before {
		t.Fatalf("SendPayment-only run changed total: %d -> %d", before, after)
	}
}

func TestTATPRuns(t *testing.T) {
	cl := newCluster(t)
	tp := NewTATP(cl.Targets(), 500)
	tp.Load()
	committed := 0
	runOne(t, cl, 4, func(ti int, c *core.Ctx) {
		rng := rand.New(rand.NewSource(int64(ti) + 100))
		for i := 0; i < 50; i++ {
			tp.RunOne(c, rng)
			committed++
		}
	})
	if committed != 200 {
		t.Fatalf("committed = %d", committed)
	}
	// All locks released.
	for k := uint64(0); k < 500; k++ {
		addr, _ := tp.DB.recordAddr("subscriber", k)
		if cl.Memories[addr.Blade-1].Mem.Load8(addr.Offset) != 0 {
			t.Fatalf("subscriber[%d] lock leaked", k)
		}
	}
}

func TestConcurrentHotspotSerializes(t *testing.T) {
	cl := newCluster(t)
	db := NewDB(cl.Targets(), []TableSpec{{Name: "acct", Records: 2, Payload: 8}})
	db.LoadDirect("acct", 0, PutU64(0))
	const perWorker = 20
	const workers = 6
	runOne(t, cl, workers, func(ti int, c *core.Ctx) {
		for i := 0; i < perWorker; i++ {
			for {
				tx := db.Begin(c)
				v, err := tx.ReadForUpdate("acct", 0)
				if err != nil {
					tx.Abort()
					continue
				}
				tx.Write("acct", 0, PutU64(U64(v)+1))
				if tx.Commit() == nil {
					break
				}
			}
		}
	})
	if got := U64(db.ReadDirect("acct", 0)); got != perWorker*workers {
		t.Fatalf("counter = %d, want %d (lost updates)", got, perWorker*workers)
	}
}
