package race

import (
	"testing"

	"repro/internal/core"
)

// forEachBucket visits every bucket of every distinct segment the
// directory names, with the directory index of the segment's first
// appearance, the bucket header and the keys of its occupied slots.
func forEachBucket(tbl *Table, fn func(idx int, e dirEntry, h header, keys []uint64)) {
	seen := map[dirEntry]bool{}
	for idx := 0; idx < 1<<uint(tbl.gd()); idx++ {
		e := tbl.readDirEntry(idx)
		if seen[e] {
			continue
		}
		seen[e] = true
		mem := tbl.mem(e.bladeID())
		for g := 0; g < tbl.cfg.Groups; g++ {
			for b := 0; b < 3; b++ {
				off := e.segOff() + 8 + uint64(g*GroupBytes+b*BucketBytes)
				var keys []uint64
				for si := 0; si < SlotsPerBucket; si++ {
					if s := slot(mem.Load8(off + 8*uint64(1+si))); !s.empty() {
						k, _ := readKV(mem, s)
						keys = append(keys, k)
					}
				}
				fn(idx, e, header(mem.Load8(off)), keys)
			}
		}
	}
}

// slotsOf counts the occupied slots holding each key.
func slotsOf(tbl *Table) map[uint64]int {
	n := map[uint64]int{}
	forEachBucket(tbl, func(_ int, _ dirEntry, _ header, keys []uint64) {
		for _, k := range keys {
			n[k]++
		}
	})
	return n
}

// RDMA-path splits leave the directory and the segments agreeing:
// each segment's bucket headers carry its directory entry's local
// depth and suffix, every key sits in the segment its hash names (a
// split scrubs what it moves), each split adds exactly one segment,
// and the directory lock is free afterwards.
func TestClientSplitKeepsDirectoryConsistent(t *testing.T) {
	cl := newCluster(t, 2)
	tbl := Create(cl.Targets(), Config{Groups: 2, InitialDepth: 1, MaxDepth: 10})
	client := NewClient(tbl)
	const n = 300
	runClient(t, cl, core.Smart(), func(c *core.Ctx) {
		for i := uint64(0); i < n; i++ {
			client.Update(c, i, i)
		}
	})
	if client.Splits == 0 {
		t.Fatal("no splits")
	}
	if got, want := tbl.Segments(), 2+int(client.Splits); got != want {
		t.Errorf("%d segments after %d splits, want %d", got, client.Splits, want)
	}
	forEachBucket(tbl, func(idx int, e dirEntry, h header, keys []uint64) {
		ld := uint(e.localDepth())
		suffix := uint32(idx & (1<<ld - 1))
		if h.localDepth() != e.localDepth() || h.suffix() != suffix {
			t.Fatalf("index %d: header depth/suffix %d/%d, directory says %d/%d", idx, h.localDepth(), h.suffix(), ld, suffix)
		}
		for _, k := range keys {
			if !fresh(h, k) {
				t.Fatalf("key %d left in the segment with suffix %d", k, suffix)
			}
		}
	})
	for k, slots := range slotsOf(tbl) {
		if slots != 1 {
			t.Errorf("key %d in %d slots", k, slots)
		}
	}
	if w := tbl.mem(tbl.dirAddr.Blade).Load8(tbl.dirAddr.Add(dirLockOff).Offset); w != 0 {
		t.Errorf("directory lock word = %d after the splits", w)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tbl.GetDirect(i); !ok || v != i {
			t.Fatalf("GetDirect(%d) = %d,%v", i, v, ok)
		}
	}
}

// A client bootstrapped before another client's splits updates keys
// the splits moved: its stale directory entries fail the header check,
// it refreshes, and each update replaces the key's one slot rather
// than inserting a second copy into the old segment.
func TestStaleClientUpdatesMovedKeys(t *testing.T) {
	cl := newCluster(t, 2)
	tbl := Create(cl.Targets(), Config{Groups: 2, InitialDepth: 1, MaxDepth: 10})
	writer, stale := NewClient(tbl), NewClient(tbl)
	const n = 300
	runClient(t, cl, core.Smart(), func(c *core.Ctx) {
		for i := uint64(0); i < n; i++ {
			writer.Update(c, i, i)
		}
		for i := uint64(0); i < n; i++ {
			stale.Update(c, i, i+n)
		}
		for i := uint64(0); i < n; i++ {
			if v, ok := writer.Lookup(c, i); !ok || v != i+n {
				t.Errorf("writer Lookup(%d) = %d,%v, want %d", i, v, ok, i+n)
				return
			}
		}
	})
	if writer.Splits == 0 || stale.Splits != 0 {
		t.Fatalf("splits: writer %d, stale %d; want only the writer to split", writer.Splits, stale.Splits)
	}
	if stale.gd != tbl.GlobalDepth() {
		t.Errorf("stale client depth %d, table %d", stale.gd, tbl.GlobalDepth())
	}
	slots := slotsOf(tbl)
	if len(slots) != n {
		t.Errorf("%d distinct keys in the table, want %d", len(slots), n)
	}
	for k, c := range slots {
		if c != 1 {
			t.Errorf("key %d in %d slots", k, c)
		}
	}
}
