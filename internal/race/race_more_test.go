package race

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/blade"
	"repro/internal/core"
	"repro/internal/rnic"
	"repro/internal/sim"
)

// Property: RDMA-path updates of present and absent keys agree with a
// map model through segment splits. Segments of two groups make the
// inserts split the table many times over. Two writers share the
// table, so each also meets the other's splits through a stale
// directory cache; a third client only looks up, so its global depth
// can grow only through refresh.
func TestClientMapModelProperty(t *testing.T) {
	cl := newCluster(t, 2)
	tbl := Create(cl.Targets(), Config{Groups: 2, InitialDepth: 1, MaxDepth: 10})
	writers := [2]*Client{NewClient(tbl), NewClient(tbl)}
	reader := NewClient(tbl)
	const keys = 300
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(31))
	runClient(t, cl, core.Smart(), func(c *core.Ctx) {
		for i := 0; i < 900; i++ {
			k, v := uint64(rng.Intn(keys)), rng.Uint64()
			writers[rng.Intn(2)].Update(c, k, v)
			model[k] = v
		}
		for k := uint64(0); k < keys; k++ {
			want, wantOK := model[k]
			for _, client := range [...]*Client{writers[0], writers[1], reader} {
				if got, ok := client.Lookup(c, k); ok != wantOK || got != want {
					t.Errorf("key %d: table=(%d,%v) model=(%d,%v)", k, got, ok, want, wantOK)
					return
				}
			}
		}
	})
	if writers[0].Splits == 0 || writers[1].Splits == 0 {
		t.Fatalf("splits = %d, %d; want both writers to split", writers[0].Splits, writers[1].Splits)
	}
	if reader.gd <= 1 || reader.gd != tbl.GlobalDepth() {
		t.Fatalf("reader depth %d, table depth %d: the reader never refreshed", reader.gd, tbl.GlobalDepth())
	}
	for k, want := range model {
		if got, ok := tbl.GetDirect(k); !ok || got != want {
			t.Fatalf("direct view of key %d = %d,%v, want %d", k, got, ok, want)
		}
	}
}

func TestFreshDetectsStaleEntries(t *testing.T) {
	// A header whose suffix disagrees with the key's hash bits marks a
	// stale directory entry.
	key := uint64(12345)
	ld := uint8(4)
	goodSuffix := uint32(dirIndexHash(key) & (1<<4 - 1))
	if !fresh(makeHeader(ld, goodSuffix), key) {
		t.Fatal("matching suffix reported stale")
	}
	if fresh(makeHeader(ld, goodSuffix^1), key) {
		t.Fatal("mismatched suffix reported fresh")
	}
}

func TestPairsForDistinctAndInRange(t *testing.T) {
	seg := blade.Addr{Blade: 1, Offset: 8}
	for key := uint64(0); key < 2000; key++ {
		prs := pairsFor(key, seg, 64)
		for _, pr := range prs {
			off := pr.addr.Offset - seg.Offset
			if pr.mainFirst {
				if off%GroupBytes != 0 {
					t.Fatalf("main-first pair misaligned: %d", off)
				}
			} else if off%GroupBytes != BucketBytes {
				t.Fatalf("main-second pair misaligned: %d", off)
			}
			if off >= 64*GroupBytes {
				t.Fatalf("pair beyond segment: %d", off)
			}
		}
	}
}

// TestKVPlacement pins where the client puts KV blocks: each from the
// blade's own cursor, so blocks are distinct and 8-aligned, and T
// threads × N updates commit at most ⌈T·N·KVBytes / 64 KiB⌉ + 1 blade
// pages — the pages the blocks fill, plus one the cursor may straddle —
// not a page per thread as per-thread chunks would.
func TestKVPlacement(t *testing.T) {
	cl := newCluster(t, 1)
	tbl := Create(cl.Targets(), Config{Groups: 64})
	client := NewClient(tbl)
	seen := map[uint64]bool{}
	for i := 0; i < 2<<16/KVBytes; i++ {
		a := client.alloc(1)
		if a.Blade != 1 || a.Offset%8 != 0 {
			t.Fatalf("KV block at %v: want blade 1, 8-aligned", a)
		}
		if seen[a.Offset] {
			t.Fatalf("duplicate KV block at %v", a)
		}
		seen[a.Offset] = true
	}

	const threads, updates = 8, 300
	const keys = 64
	for k := uint64(1); k <= keys; k++ {
		tbl.LoadDirect(k, 0)
	}
	mem := cl.Memories[0].Mem
	before := mem.Pages()
	rt := core.MustNew(cl.Computes[0].NIC, cl.Targets(), threads, core.Smart())
	for ti := 0; ti < threads; ti++ {
		rt.Thread(ti).Spawn("u", func(c *core.Ctx) {
			for i := 0; i < updates; i++ {
				client.Update(c, uint64(ti*updates+i)%keys+1, uint64(i))
			}
		})
	}
	cl.Eng.Run(10 * sim.Second)
	rt.Stop()
	if ops := rt.TotalStats().Ops; ops != threads*updates {
		t.Fatalf("%d updates ran, want %d", ops, threads*updates)
	}
	limit := (threads*updates*KVBytes+1<<16-1)>>16 + 1
	if got := mem.Pages() - before; got > limit {
		t.Errorf("%d×%d updates committed %d pages, want at most %d", threads, updates, got, limit)
	}
}

// casNAKs fails the next n CAS work requests at the responder.
type casNAKs struct{ n int }

func (f *casNAKs) Decide(kind rnic.OpKind, _ sim.Time, _ *rand.Rand) rnic.Verdict {
	if kind != rnic.OpCAS || f.n == 0 {
		return rnic.Verdict{}
	}
	f.n--
	return rnic.Verdict{Action: rnic.ActFail}
}

// TestUpdateRetriesReuseBuffers pins §3.3's retry loop to the buffers
// its first round carved: an update whose slot CAS fails k times
// re-reads the bucket pair and the KV block k times into the same two
// buffers (core.Ctx.ReuseBuf), so it carves the same arena bytes for
// every k, and once the coroutine's arena has grown to one update's
// footprint, no k allocates. Carving a fresh pair and block per round
// outgrows the arena as k grows.
func TestUpdateRetriesReuseBuffers(t *testing.T) {
	cl := newCluster(t, 1)
	tbl := Create(cl.Targets(), Config{Groups: 64})
	tbl.LoadDirect(1, 0)
	client := NewClient(tbl)
	rt := core.MustNew(cl.Computes[0].NIC, cl.Targets(), 1, core.Baseline(core.PerThreadDoorbell))
	naks := &casNAKs{}
	cl.Computes[0].NIC.SetFault(naks)
	var k, retries int
	c := rt.Thread(0).Spawn("u", func(c *core.Ctx) {
		for {
			c.Proc().Suspend()
			naks.n = k
			retries = client.Update(c, 1, uint64(k))
		}
	})
	cl.Eng.Run(0)
	var ms runtime.MemStats
	for i, n := range []int{1, 1, 2, 4, 8, 16, 32, 64} {
		k = n
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		c.Proc().Wake()
		cl.Eng.Run(0)
		runtime.ReadMemStats(&ms)
		if retries != k {
			t.Fatalf("update with %d CAS NAKs reported %d retries", k, retries)
		}
		if allocs := ms.Mallocs - before; i > 0 && allocs != 0 {
			t.Errorf("update retrying %d CAS allocated %d times, want 0", k, allocs)
		}
	}
	if got, _ := tbl.GetDirect(1); got != 64 {
		t.Errorf("key 1 holds %d after the last update, want 64", got)
	}
}

func TestUpdateCountsRetriesViaEndOp(t *testing.T) {
	cl := newCluster(t, 1)
	tbl := Create(cl.Targets(), Config{Groups: 128})
	tbl.LoadDirect(1, 1)
	client := NewClient(tbl)
	opts := core.Smart()
	rt := core.MustNew(cl.Computes[0].NIC, cl.Targets(), 4, opts)
	total := 0
	for ti := 0; ti < 4; ti++ {
		th := rt.Thread(ti)
		th.Spawn("u", func(c *core.Ctx) {
			for i := 0; i < 30; i++ {
				total += client.Update(c, 1, uint64(i))
			}
		})
	}
	cl.Eng.Run(10 * sim.Second)
	rt.Stop()
	if uint64(total) != rt.TotalStats().CASFailed {
		t.Fatalf("per-op retries sum %d != thread CASFailed %d", total, rt.TotalStats().CASFailed)
	}
}
