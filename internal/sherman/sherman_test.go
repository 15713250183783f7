package sherman

import (
	"math/rand"
	"sort"
	"testing"

	bladelib "repro/internal/blade"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

func newCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl := cluster.New(cluster.Config{
		ComputeBlades: 1,
		MemoryBlades:  2,
		BladeCapacity: 64 << 20,
		Seed:          321,
	})
	t.Cleanup(cl.Stop)
	return cl
}

func seqKeys(n int) []uint64 {
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = uint64(i + 1)
	}
	return ks
}

func TestBulkLoadAndGetDirect(t *testing.T) {
	cl := newCluster(t)
	tree := BulkLoad(cl.Targets(), seqKeys(10000), 0.7)
	if tree.Height() < 2 {
		t.Fatalf("height = %d", tree.Height())
	}
	for _, k := range []uint64{1, 500, 9999, 10000} {
		if v, ok := tree.GetDirect(k); !ok || v != k {
			t.Fatalf("GetDirect(%d) = %d,%v", k, v, ok)
		}
	}
	if _, ok := tree.GetDirect(10001); ok {
		t.Fatal("found absent key")
	}
	if _, ok := tree.GetDirect(0); ok {
		t.Fatal("found absent key 0")
	}
}

func TestPackAddrRoundtrip(t *testing.T) {
	a := unpackAddr(packAddr(bladelib.Addr{Blade: 3, Offset: 0xabcdef}))
	if a.Blade != 3 || a.Offset != 0xabcdef {
		t.Fatalf("roundtrip = %v", a)
	}
}

func runClient(t *testing.T, cl *cluster.Cluster, fn func(c *core.Ctx)) {
	t.Helper()
	rt := core.MustNew(cl.Computes[0].NIC, cl.Targets(), 1, core.Smart())
	done := false
	rt.Thread(0).Spawn("test", func(c *core.Ctx) {
		fn(c)
		done = true
	})
	cl.Eng.Run(20 * sim.Second)
	rt.Stop()
	if !done {
		t.Fatal("client did not finish")
	}
}

func TestLookupThroughRDMA(t *testing.T) {
	cl := newCluster(t)
	tree := BulkLoad(cl.Targets(), seqKeys(5000), 0.7)
	client := NewClient(tree, cl.Eng, false)
	runClient(t, cl, func(c *core.Ctx) {
		for _, k := range []uint64{1, 2500, 5000} {
			if v, ok := client.Lookup(c, k); !ok || v != k {
				t.Errorf("Lookup(%d) = %d,%v", k, v, ok)
			}
		}
		if _, ok := client.Lookup(c, 99999); ok {
			t.Error("found absent key")
		}
	})
}

func TestSpeculativeLookupFastPath(t *testing.T) {
	cl := newCluster(t)
	tree := BulkLoad(cl.Targets(), seqKeys(5000), 0.7)
	client := NewClient(tree, cl.Eng, true)
	runClient(t, cl, func(c *core.Ctx) {
		// First lookup warms the cache; the second is a 16-byte read.
		client.LookupSpec(c, 42)
		before := c.T.Stats.WRs
		if v, ok := client.LookupSpec(c, 42); !ok || v != 42 {
			t.Errorf("spec lookup = %d,%v", v, ok)
		}
		if got := c.T.Stats.WRs - before; got != 1 {
			t.Errorf("fast-path lookup used %d WRs, want 1", got)
		}
	})
	if client.SpecHits != 1 {
		t.Fatalf("SpecHits = %d", client.SpecHits)
	}
}

func TestUpdateInPlace(t *testing.T) {
	cl := newCluster(t)
	tree := BulkLoad(cl.Targets(), seqKeys(1000), 0.7)
	client := NewClient(tree, cl.Eng, true)
	runClient(t, cl, func(c *core.Ctx) {
		client.Update(c, 500, 12345)
		if v, ok := client.Lookup(c, 500); !ok || v != 12345 {
			t.Errorf("after update: %d,%v", v, ok)
		}
		// Speculative path sees the new value too (it reads remote).
		if v, ok := client.LookupSpec(c, 500); !ok || v != 12345 {
			t.Errorf("spec after update: %d,%v", v, ok)
		}
	})
	if v, ok := tree.GetDirect(500); !ok || v != 12345 {
		t.Fatalf("direct check: %d,%v", v, ok)
	}
}

func TestInsertNewKeys(t *testing.T) {
	cl := newCluster(t)
	tree := BulkLoad(cl.Targets(), seqKeys(100), 0.5)
	client := NewClient(tree, cl.Eng, false)
	runClient(t, cl, func(c *core.Ctx) {
		client.Update(c, 1000001, 7)
		if v, ok := client.Lookup(c, 1000001); !ok || v != 7 {
			t.Errorf("inserted key: %d,%v", v, ok)
		}
	})
}

func TestLeafSplitsAndOrderPreserved(t *testing.T) {
	cl := newCluster(t)
	tree := BulkLoad(cl.Targets(), seqKeys(64), 1.0) // full leaves
	client := NewClient(tree, cl.Eng, false)
	rng := rand.New(rand.NewSource(4))
	inserted := map[uint64]uint64{}
	runClient(t, cl, func(c *core.Ctx) {
		for i := 0; i < 800; i++ {
			k := uint64(rng.Intn(1 << 20))
			client.Update(c, k, k*3)
			inserted[k] = k * 3
		}
	})
	if client.Splits == 0 {
		t.Fatal("expected leaf splits")
	}
	for k, want := range inserted {
		if v, ok := tree.GetDirect(k); !ok || v != want {
			t.Fatalf("key %d: %d,%v want %d", k, v, ok, want)
		}
	}
	// Original keys survive the splits.
	for _, k := range seqKeys(64) {
		if want, isIns := inserted[k]; isIns {
			if v, _ := tree.GetDirect(k); v != want {
				t.Fatalf("overwritten key %d = %d", k, v)
			}
			continue
		}
		if v, ok := tree.GetDirect(k); !ok || v != k {
			t.Fatalf("original key %d lost: %d,%v", k, v, ok)
		}
	}
}

func TestCrossClientInvalidation(t *testing.T) {
	cl := newCluster(t)
	tree := BulkLoad(cl.Targets(), seqKeys(64), 1.0)
	a := NewClient(tree, cl.Eng, false)
	b := NewClient(tree, cl.Eng, false)
	rtA := core.MustNew(cl.Computes[0].NIC, cl.Targets(), 2, core.Smart())
	done := 0
	// Client A splits leaves; client B then reads through its stale
	// cache and must recover via fence checks.
	rtA.Thread(0).Spawn("a", func(c *core.Ctx) {
		for i := 0; i < 400; i++ {
			k := uint64(1000 + i)
			a.Update(c, k, k)
		}
		done++
	})
	rtA.Thread(1).Spawn("b", func(c *core.Ctx) {
		c.Proc().Sleep(100 * sim.Millisecond) // let A finish
		for i := 0; i < 400; i++ {
			k := uint64(1000 + i)
			if v, ok := b.Lookup(c, k); !ok || v != k {
				t.Errorf("client B Lookup(%d) = %d,%v", k, v, ok)
				return
			}
		}
		done++
	})
	cl.Eng.Run(30 * sim.Second)
	rtA.Stop()
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
}

func TestHOCLLocalLockSharing(t *testing.T) {
	cl := newCluster(t)
	tree := BulkLoad(cl.Targets(), seqKeys(10), 1.0)
	client := NewClient(tree, cl.Eng, false)
	rt := core.MustNew(cl.Computes[0].NIC, cl.Targets(), 4, core.Smart())
	for i := 0; i < 4; i++ {
		th := rt.Thread(i)
		th.Spawn("w", func(c *core.Ctx) {
			for j := 0; j < 25; j++ {
				client.Update(c, 5, uint64(j)) // same leaf
			}
		})
	}
	cl.Eng.Run(30 * sim.Second)
	rt.Stop()
	// With the local lock level, remote CAS conflicts from within one
	// compute blade are impossible: every remote lock acquisition
	// succeeds first try.
	s := rt.TotalStats()
	if s.CASFailed != 0 {
		t.Fatalf("HOCL should eliminate intra-blade CAS failures, got %d/%d", s.CASFailed, s.CASTotal)
	}
	if _, ok := tree.GetDirect(5); !ok {
		t.Fatal("key lost")
	}
}

func TestLeafViewSearch(t *testing.T) {
	keys := []uint64{10, 20, 30, 40}
	raw := make([]byte, NodeBytes)
	for i, k := range keys {
		putU64(raw, entryOff(i), k)
		putU64(raw, entryOff(i)+8, k*2)
	}
	putU64(raw, leafNOff, uint64(len(keys)))
	putU64(raw, leafHiOff, MaxKey)
	v := leafView{raw: raw}
	if i, ok := v.search(30); !ok || i != 2 {
		t.Fatalf("search(30) = %d,%v", i, ok)
	}
	if i, ok := v.search(25); ok || i != 2 {
		t.Fatalf("search(25) = %d,%v", i, ok)
	}
	if !sort.SliceIsSorted(keys, func(a, b int) bool { return keys[a] < keys[b] }) {
		t.Fatal("test keys unsorted")
	}
}

func putU64(b []byte, off uint64, v uint64) {
	for i := 0; i < 8; i++ {
		b[off+uint64(i)] = byte(v >> (8 * i))
	}
}

// Property: Update over present and absent keys agrees with a map
// model under both Lookup and LookupSpec, through leaf splits, internal
// splits and a root split. Two speculative clients share the tree, so
// each meets the other's splits through a stale index cache, and the
// final reads go through speculative entries that splits and inserts
// have moved.
func TestClientMapModelProperty(t *testing.T) {
	cl := newCluster(t)
	const keys = 4096
	var even []uint64
	for k := uint64(0); k < keys; k += 2 {
		even = append(even, k)
	}
	tree := BulkLoad(cl.Targets(), even, 1.0) // full leaves: the first odd insert splits
	height := tree.Height()
	clients := [2]*Client{NewClient(tree, cl.Eng, true), NewClient(tree, cl.Eng, true)}
	model := map[uint64]uint64{}
	for _, k := range even {
		model[k] = k
	}
	check := func(c *core.Ctx, client *Client, k uint64, spec bool) bool {
		read := client.Lookup
		if spec {
			read = client.LookupSpec
		}
		got, ok := read(c, k)
		want, wantOK := model[k]
		if ok != wantOK || got != want {
			t.Errorf("key %d (spec=%v): tree=(%d,%v) model=(%d,%v)", k, spec, got, ok, want, wantOK)
			return false
		}
		return true
	}
	stale := 0
	rng := rand.New(rand.NewSource(17))
	runClient(t, cl, func(c *core.Ctx) {
		for i := 0; i < 6000; i++ {
			client, k := clients[rng.Intn(2)], uint64(rng.Intn(keys))
			if rng.Intn(3) == 0 {
				if !check(c, client, k, true) {
					return
				}
				continue
			}
			v := rng.Uint64()
			client.Update(c, k, v)
			model[k] = v
		}
		// Count the speculative entries that no longer point at their
		// key: the reads below must take the fallback for each.
		for _, client := range clients {
			for k, e := range client.spec {
				at := unpackAddr(e.leaf).Add(entryOff(e.slot))
				if tree.mem(at.Blade).Load8(at.Offset) != k {
					stale++
				}
			}
		}
		for k := uint64(0); k < keys; k++ {
			for _, client := range clients {
				if !check(c, client, k, true) || !check(c, client, k, false) {
					return
				}
			}
		}
	})
	for i, client := range clients {
		if client.Splits == 0 || client.SpecHits == 0 {
			t.Errorf("client %d: %d splits, %d spec hits; want both", i, client.Splits, client.SpecHits)
		}
	}
	if stale == 0 {
		t.Error("no speculative entry was moved by a split or insert")
	}
	if tree.Height() <= height {
		t.Errorf("height %d → %d: the root never split", height, tree.Height())
	}
}
