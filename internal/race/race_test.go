package race

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

func newCluster(t *testing.T, blades int) *cluster.Cluster {
	t.Helper()
	cl := cluster.New(cluster.Config{
		ComputeBlades: 1,
		MemoryBlades:  blades,
		BladeCapacity: 64 << 20,
		Seed:          123,
	})
	t.Cleanup(cl.Stop)
	return cl
}

func TestSlotEncoding(t *testing.T) {
	s := makeSlot(0xab, 0x123456789abc)
	if s.fp() != 0xab || s.kvOff() != 0x123456789abc || s.empty() {
		t.Fatalf("slot roundtrip: fp=%#x off=%#x", s.fp(), s.kvOff())
	}
	if !slot(0).empty() {
		t.Fatal("zero slot must be empty")
	}
}

func TestHeaderAndDirEntryEncoding(t *testing.T) {
	h := makeHeader(7, 0x1234)
	if h.localDepth() != 7 || h.suffix() != 0x1234 {
		t.Fatal("header roundtrip failed")
	}
	e := makeDirEntry(5, 3, 0xdeadbeef)
	if e.localDepth() != 5 || e.bladeID() != 3 || e.segOff() != 0xdeadbeef {
		t.Fatal("dirEntry roundtrip failed")
	}
	if a := e.segAddr(); a.Blade != 3 || a.Offset != 0xdeadbeef {
		t.Fatal("segAddr wrong")
	}
}

func TestFingerprintNeverZero(t *testing.T) {
	for i := uint64(0); i < 100000; i++ {
		if fingerprint(i) == 0 {
			t.Fatalf("fingerprint(%d) = 0", i)
		}
	}
}

func TestKVCodec(t *testing.T) {
	k, v := decodeKV(encodeKV(make([]byte, KVBytes), 0xdead, 0xbeef))
	if k != 0xdead || v != 0xbeef {
		t.Fatalf("kv roundtrip: %x %x", k, v)
	}
}

func TestDirectLoadAndGet(t *testing.T) {
	cl := newCluster(t, 2)
	tbl := Create(cl.Targets(), Config{Groups: 64})
	for i := uint64(0); i < 1000; i++ {
		tbl.LoadDirect(i, i*3)
	}
	for i := uint64(0); i < 1000; i++ {
		v, ok := tbl.GetDirect(i)
		if !ok || v != i*3 {
			t.Fatalf("GetDirect(%d) = %d,%v", i, v, ok)
		}
	}
	if _, ok := tbl.GetDirect(999999); ok {
		t.Fatal("found absent key")
	}
}

func TestDirectLoadUpdatesInPlace(t *testing.T) {
	cl := newCluster(t, 1)
	tbl := Create(cl.Targets(), Config{Groups: 16})
	tbl.LoadDirect(42, 1)
	tbl.LoadDirect(42, 2)
	if v, ok := tbl.GetDirect(42); !ok || v != 2 {
		t.Fatalf("after double load: %d,%v", v, ok)
	}
}

func TestDirectSplitGrowsDirectory(t *testing.T) {
	cl := newCluster(t, 2)
	// Tiny segments force splits quickly.
	tbl := Create(cl.Targets(), Config{Groups: 2, InitialDepth: 1, MaxDepth: 10})
	const n = 400
	for i := uint64(0); i < n; i++ {
		tbl.LoadDirect(i, i+7)
	}
	if tbl.GlobalDepth() <= 1 {
		t.Fatal("expected directory growth under load")
	}
	if tbl.Segments() < 4 {
		t.Fatalf("segments = %d, expected several splits", tbl.Segments())
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tbl.GetDirect(i); !ok || v != i+7 {
			t.Fatalf("after splits, GetDirect(%d) = %d,%v", i, v, ok)
		}
	}
}

// Property: the table agrees with a map model under random
// load/update sequences including splits.
func TestDirectMapModelProperty(t *testing.T) {
	cl := newCluster(t, 3)
	tbl := Create(cl.Targets(), Config{Groups: 4, MaxDepth: 11})
	rng := rand.New(rand.NewSource(9))
	model := map[uint64]uint64{}
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(500))
		v := rng.Uint64()
		tbl.LoadDirect(k, v)
		model[k] = v
	}
	for k, want := range model {
		if got, ok := tbl.GetDirect(k); !ok || got != want {
			t.Fatalf("key %d: got %d,%v want %d", k, got, ok, want)
		}
	}
}

// runClient executes fn on a SMART coroutine and returns after the
// engine has quiesced.
func runClient(t *testing.T, cl *cluster.Cluster, opts core.Options, fn func(c *core.Ctx)) {
	t.Helper()
	rt := core.MustNew(cl.Computes[0].NIC, cl.Targets(), 1, opts)
	done := false
	rt.Thread(0).Spawn("test", func(c *core.Ctx) {
		fn(c)
		done = true
	})
	cl.Eng.Run(10 * sim.Second)
	rt.Stop()
	if !done {
		t.Fatal("client coroutine did not finish")
	}
}

func TestClientLookupUpdate(t *testing.T) {
	cl := newCluster(t, 2)
	tbl := Create(cl.Targets(), Config{Groups: 64})
	for i := uint64(0); i < 200; i++ {
		tbl.LoadDirect(i, i)
	}
	client := NewClient(tbl)
	runClient(t, cl, core.Smart(), func(c *core.Ctx) {
		if v, ok := client.Lookup(c, 50); !ok || v != 50 {
			t.Errorf("Lookup(50) = %d,%v", v, ok)
		}
		if _, ok := client.Lookup(c, 12345); ok {
			t.Error("found absent key")
		}
		if r := client.Update(c, 50, 999); r != 0 {
			t.Errorf("uncontended update retries = %d", r)
		}
		if v, ok := client.Lookup(c, 50); !ok || v != 999 {
			t.Errorf("after update: %d,%v", v, ok)
		}
		client.Update(c, 7777, 1) // fresh insert through RDMA path
		if v, ok := client.Lookup(c, 7777); !ok || v != 1 {
			t.Errorf("inserted key: %d,%v", v, ok)
		}
	})
	// Direct view agrees.
	if v, ok := tbl.GetDirect(7777); !ok || v != 1 {
		t.Fatalf("direct view of RDMA insert: %d,%v", v, ok)
	}
}

func TestClientSplitViaRDMA(t *testing.T) {
	cl := newCluster(t, 2)
	tbl := Create(cl.Targets(), Config{Groups: 2, InitialDepth: 1, MaxDepth: 10})
	client := NewClient(tbl)
	const n = 300
	runClient(t, cl, core.Smart(), func(c *core.Ctx) {
		for i := uint64(0); i < n; i++ {
			client.Update(c, i, i*2)
		}
		for i := uint64(0); i < n; i++ {
			if v, ok := client.Lookup(c, i); !ok || v != i*2 {
				t.Errorf("after RDMA splits, Lookup(%d) = %d,%v", i, v, ok)
				return
			}
		}
	})
	if client.Splits == 0 {
		t.Fatal("expected RDMA-path splits with tiny segments")
	}
	if tbl.GlobalDepth() <= 1 {
		t.Fatal("directory did not grow")
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tbl.GetDirect(i); !ok || v != i*2 {
			t.Fatalf("direct check key %d: %d,%v", i, v, ok)
		}
	}
}

func TestConcurrentUpdatersContend(t *testing.T) {
	cl := newCluster(t, 1)
	tbl := Create(cl.Targets(), Config{Groups: 128})
	for i := uint64(0); i < 64; i++ {
		tbl.LoadDirect(i, 0)
	}
	client := NewClient(tbl)
	opts := core.Smart()
	rt := core.MustNew(cl.Computes[0].NIC, cl.Targets(), 8, opts)
	for ti := 0; ti < 8; ti++ {
		th := rt.Thread(ti)
		th.Spawn("upd", func(c *core.Ctx) {
			for round := 0; round < 50; round++ {
				client.Update(c, 3, uint64(round)) // one hot key
			}
		})
	}
	cl.Eng.Run(10 * sim.Second)
	rt.Stop()
	s := rt.TotalStats()
	if s.CASFailed == 0 {
		t.Fatal("8 threads hammering one key should produce CAS retries")
	}
	if _, ok := tbl.GetDirect(3); !ok {
		t.Fatal("hot key lost")
	}
}

func TestLookupUsesThreeReads(t *testing.T) {
	cl := newCluster(t, 1)
	tbl := Create(cl.Targets(), Config{Groups: 64})
	tbl.LoadDirect(5, 55)
	client := NewClient(tbl)
	rt := core.MustNew(cl.Computes[0].NIC, cl.Targets(), 1, core.Baseline(core.PerThreadDoorbell))
	rt.Thread(0).Spawn("t", func(c *core.Ctx) {
		client.Lookup(c, 5)
	})
	cl.Eng.Run(10 * sim.Second)
	rt.Stop()
	if wrs := rt.TotalStats().WRs; wrs != 3 {
		t.Fatalf("lookup used %d work requests, want 3 (two buckets + KV)", wrs)
	}
}
