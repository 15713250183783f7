package race

import (
	"math/rand"
	"testing"

	"repro/internal/blade"
	"repro/internal/core"
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

func TestArenaChunking(t *testing.T) {
	cl := newCluster(t, 1)
	tbl := Create(cl.Targets(), Config{Groups: 64})
	client := NewClient(tbl)
	// Allocate beyond one chunk; addresses must be distinct and
	// 8-aligned.
	seen := map[uint64]bool{}
	for i := 0; i < (arenaChunk/KVBytes)+10; i++ {
		a := client.alloc(0, 1)
		if a.Offset%8 != 0 {
			t.Fatalf("unaligned arena alloc: %#x", a.Offset)
		}
		if seen[a.Offset] {
			t.Fatalf("duplicate arena address %#x", a.Offset)
		}
		seen[a.Offset] = true
	}
	// Separate threads get separate arenas.
	a0 := client.alloc(0, 1)
	a1 := client.alloc(1, 1)
	if a0 == a1 {
		t.Fatal("thread arenas collide")
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
