package race

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/blade"
	"repro/internal/verbs"
)

// --- Reference direct loader ---------------------------------------
//
// The two-pass direct loader as it stood before LoadDirect scanned each
// candidate pair once: two heap-allocated pair reads, a fingerprint pass,
// a countUsed pass over both pairs and a first-empty pass, word-at-a-time
// segment initialisation. Kept verbatim (receiver methods renamed ref*)
// as the oracle the one-pass loader must match byte for byte.

func (t *Table) refLoadDirect(key, val uint64) {
	for {
		gd := t.gd()
		idx := dirIndex(key, gd)
		e := t.readDirEntry(idx)
		if t.refTryPutDirect(e, key, val) {
			return
		}
		t.refSplitDirect(idx)
	}
}

func (t *Table) refTryPutDirect(e dirEntry, key, val uint64) bool {
	mem := t.mem(e.bladeID())
	pairs := pairsFor(key, groupsBase(e.segAddr()), t.cfg.Groups)
	fp := fingerprint(key)
	views := [2]pairView{}
	for i, pr := range pairs {
		views[i] = pairView{raw: mem.Read(pr.addr.Offset, PairBytes), ref: pr}
	}
	// Update in place if the key exists.
	for _, v := range views {
		for i := 0; i < totalSlots; i++ {
			s, addr := v.slotAt(i)
			if !s.empty() && s.fp() == fp {
				if k, _ := decodeKV(mem.Read(s.kvOff(), KVBytes)); k == key {
					kv := mem.Alloc(KVBytes)
					var kvb [KVBytes]byte
					mem.Write(kv.Offset, encodeKV(kvb[:], key, val))
					mem.Store8(addr.Offset, makeSlot(fp, kv.Offset).word())
					return true
				}
			}
		}
	}
	// Insert into the first empty slot of the emptier pair.
	order := [2]int{0, 1}
	if countUsed(views[1]) < countUsed(views[0]) {
		order = [2]int{1, 0}
	}
	for _, vi := range order {
		v := views[vi]
		for i := 0; i < totalSlots; i++ {
			if s, addr := v.slotAt(i); s.empty() {
				kv := mem.Alloc(KVBytes)
				var kvb [KVBytes]byte
				mem.Write(kv.Offset, encodeKV(kvb[:], key, val))
				mem.Store8(addr.Offset, makeSlot(fp, kv.Offset).word())
				return true
			}
		}
	}
	return false
}

func (t *Table) refNewSegment(localDepth uint8, suffix uint32) blade.Addr {
	tgt := t.targets[t.segAlloc%len(t.targets)]
	t.segAlloc++
	seg := tgt.Mem.Alloc(t.cfg.segBytes())
	t.refInitSegment(seg, localDepth, suffix)
	return seg
}

func (t *Table) refInitSegment(seg blade.Addr, localDepth uint8, suffix uint32) {
	mem := t.mem(seg.Blade)
	mem.Store8(seg.Offset, 0) // lock word
	h := makeHeader(localDepth, suffix).word()
	base := seg.Offset + 8
	for g := 0; g < t.cfg.Groups; g++ {
		for b := 0; b < 3; b++ {
			off := base + uint64(g*GroupBytes+b*BucketBytes)
			mem.Store8(off, h)
			for s := 0; s < SlotsPerBucket; s++ {
				mem.Store8(off+8*uint64(1+s), 0)
			}
		}
	}
}

func (t *Table) refSplitDirect(idx int) {
	gd := t.gd()
	e := t.readDirEntry(idx % (1 << uint(gd)))
	ld := int(e.localDepth())
	if ld == gd {
		if gd >= t.cfg.MaxDepth {
			panic("race: directory at MaxDepth and segment full; raise Groups or MaxDepth")
		}
		for i := 0; i < 1<<uint(gd); i++ {
			t.writeDirEntry(i+1<<uint(gd), t.readDirEntry(i))
		}
		t.setGD(gd + 1)
		gd++
	}
	oldSuffix := idx & (1<<uint(ld) - 1)
	newSuffix := oldSuffix | 1<<uint(ld)
	newSeg := t.refNewSegment(uint8(ld+1), uint32(newSuffix))
	oldMem := t.mem(e.bladeID())
	newMem := t.mem(newSeg.Blade)

	// Move entries whose new depth bit is set; rewrite old headers.
	oldBase := groupsBase(e.segAddr())
	newBase := groupsBase(newSeg)
	for g := 0; g < t.cfg.Groups; g++ {
		for b := 0; b < 3; b++ {
			bOff := oldBase.Offset + uint64(g*GroupBytes+b*BucketBytes)
			oldMem.Store8(bOff, makeHeader(uint8(ld+1), uint32(oldSuffix)).word())
			for s := 0; s < SlotsPerBucket; s++ {
				sOff := bOff + 8*uint64(1+s)
				sl := slot(oldMem.Load8(sOff))
				if sl.empty() {
					continue
				}
				k, v := decodeKV(oldMem.Read(sl.kvOff(), KVBytes))
				if dirIndex(k, ld+1) == newSuffix {
					oldMem.Store8(sOff, 0)
					// Re-insert into the new segment at the mirrored
					// position (same group/bucket/slot is free there).
					nOff := newBase.Offset + uint64(g*GroupBytes+b*BucketBytes) + 8*uint64(1+s)
					kv := newMem.Alloc(KVBytes)
					var kvb [KVBytes]byte
					newMem.Write(kv.Offset, encodeKV(kvb[:], k, v))
					newMem.Store8(nOff, makeSlot(fingerprint(k), kv.Offset).word())
				}
			}
		}
	}
	// Swing directory pointers: entries congruent to newSuffix mod
	// 2^(ld+1) now point at the new segment; the rest get depth ld+1.
	for i := 0; i < 1<<uint(gd); i++ {
		if i&(1<<uint(ld+1)-1) == newSuffix {
			t.writeDirEntry(i, makeDirEntry(uint8(ld+1), newSeg.Blade, newSeg.Offset))
		} else if i&(1<<uint(ld)-1) == oldSuffix {
			t.writeDirEntry(i, makeDirEntry(uint8(ld+1), e.bladeID(), e.segOff()))
		}
	}
}

// --- Differential test and fuzz target -----------------------------

// directTargets returns memory blades with no NIC: the direct paths
// touch only Mem.
func directTargets(blades int, capacity uint64) []verbs.Target {
	ts := make([]verbs.Target, blades)
	for i := range ts {
		ts[i].Mem = blade.New(i+1, blade.DRAM, capacity)
	}
	return ts
}

// sameTable reports how got differs from want: global depth, segment
// count, the round-robin segment cursor, and per blade the bump cursor
// and every byte below it. It returns "" when they agree.
func sameTable(got, want *Table) string {
	if g, w := got.GlobalDepth(), want.GlobalDepth(); g != w {
		return fmt.Sprintf("global depth %d, want %d", g, w)
	}
	if g, w := got.Segments(), want.Segments(); g != w {
		return fmt.Sprintf("segments %d, want %d", g, w)
	}
	if got.segAlloc != want.segAlloc {
		return fmt.Sprintf("segment cursor %d, want %d", got.segAlloc, want.segAlloc)
	}
	for i := range got.targets {
		g, w := got.targets[i].Mem, want.targets[i].Mem
		// Alloc(0) returns the bump cursor without moving it.
		gc, wc := g.Alloc(0).Offset, w.Alloc(0).Offset
		if gc != wc {
			return fmt.Sprintf("blade %d: cursor %d, want %d", g.ID, gc, wc)
		}
		gb, wb := g.Read(0, int(gc)), w.Read(0, int(wc))
		if !bytes.Equal(gb, wb) {
			off := 0
			for gb[off] == wb[off] {
				off++
			}
			return fmt.Sprintf("blade %d: first differing byte at %d of %d", g.ID, off, gc)
		}
	}
	return ""
}

// loadBoth applies one LoadDirect to each table and returns what each
// panicked with (nil when it returned).
func loadBoth(got, want *Table, key, val uint64) (gotPanic, wantPanic any) {
	func() {
		defer func() { gotPanic = recover() }()
		got.LoadDirect(key, val)
	}()
	func() {
		defer func() { wantPanic = recover() }()
		want.refLoadDirect(key, val)
	}()
	return gotPanic, wantPanic
}

func TestLoadDirectMatchesReference(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		n        int
		keySpace int // 0: fresh keys 0..n-1; else keys drawn from [0, keySpace)
		minDepth int // the load must split at least to this depth
	}{
		// The ht_write preload: 100 K keys, groupsFor(100 K) groups.
		{"fresh", Config{Groups: 1488, InitialDepth: 3, MaxDepth: 8}, 100_000, 0, 3},
		// Repeated keys take the update-in-place path.
		{"duplicates", Config{Groups: 64}, 20_000, 10_000, 3},
		// Tiny segments split several times.
		{"splits", Config{Groups: 8}, 5_000, 4_000, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Create(directTargets(2, 64<<20), tc.cfg)
			want := Create(directTargets(2, 64<<20), tc.cfg)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < tc.n; i++ {
				key := uint64(i)
				if tc.keySpace > 0 {
					key = uint64(rng.Intn(tc.keySpace))
				}
				val := rng.Uint64()
				got.LoadDirect(key, val)
				want.refLoadDirect(key, val)
			}
			if d := sameTable(got, want); d != "" {
				t.Fatal(d)
			}
			if got.GlobalDepth() < tc.minDepth {
				t.Fatalf("global depth %d, want at least %d", got.GlobalDepth(), tc.minDepth)
			}
		})
	}
}

// FuzzLoadDirectMatchesReference: data[0] picks Groups (1..8), data[1]
// InitialDepth (1..4); every following 2 bytes are a key in [0, 2048),
// stored with its op index as the value. Up to a directory at MaxDepth
// (5) the two loaders must panic together and leave identical tables.
// Two bytes per key keep inputs short, so the fuzzer's minimisation of
// a new input stays cheap.
func FuzzLoadDirectMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 1, 0, 3, 0})
	f.Add([]byte{7, 3, 9, 1, 9, 9, 9, 1, 8, 8, 200, 3, 7, 7})
	seed := make([]byte, 2+2*500)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	full := []byte{0, 0} // keys 0..511 into one-group segments: reaches the panic
	for k := 0; k < 512; k++ {
		full = binary.LittleEndian.AppendUint16(full, uint16(k))
	}
	f.Add(full)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := Config{Groups: int(data[0]%8) + 1, InitialDepth: int(data[1]%4) + 1, MaxDepth: 5}
		got := Create(directTargets(2, 8<<20), cfg)
		want := Create(directTargets(2, 8<<20), cfg)
		for i, ops := uint64(0), data[2:]; len(ops) >= 2; i, ops = i+1, ops[2:] {
			key := uint64(binary.LittleEndian.Uint16(ops) & 0x7ff)
			gp, wp := loadBoth(got, want, key, i)
			if fmt.Sprint(gp) != fmt.Sprint(wp) {
				t.Fatalf("LoadDirect(%d) panicked with %v, reference with %v", key, gp, wp)
			}
			if gp != nil {
				break
			}
		}
		if d := sameTable(got, want); d != "" {
			t.Fatal(d)
		}
	})
}

// --- Allocation guard and benchmark --------------------------------

func TestLoadDirectAllocsZero(t *testing.T) {
	const capacity = 8 << 20
	targets := directTargets(2, capacity)
	tbl := Create(targets, Config{Groups: 512})
	for k := uint64(0); k < 1000; k++ {
		tbl.LoadDirect(k, k)
	}
	// Commit every page of every blade now (writing its bytes back
	// unchanged), so that a page allocated on first write inside the
	// measured calls is not counted against the loader.
	for _, tgt := range targets {
		tgt.Mem.Write(0, tgt.Mem.Read(0, capacity))
	}
	depth := tbl.GlobalDepth()
	next := uint64(1000)
	if a := testing.AllocsPerRun(200, func() {
		tbl.LoadDirect(next, next)
		next++
	}); a != 0 {
		t.Errorf("insert: %v allocs per LoadDirect, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		tbl.LoadDirect(500, next)
		next++
	}); a != 0 {
		t.Errorf("in-place update: %v allocs per LoadDirect, want 0", a)
	}
	if tbl.GlobalDepth() != depth {
		t.Fatal("a measured insert split a segment; raise Groups")
	}
	if v, ok := tbl.GetDirect(500); !ok || v != next-1 {
		t.Fatalf("GetDirect(500) = %d,%v, want %d", v, ok, next-1)
	}
}

// BenchmarkLoadDirect creates a table at the ht_write sizing and
// pre-loads it with 100 K keys, as the harness does before every
// hash-table point. It reports time and allocations per key, the
// blade pages the load commits included.
func BenchmarkLoadDirect(b *testing.B) {
	const keys = 100_000
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := Create(directTargets(2, 64<<20), Config{Groups: 1488, InitialDepth: 3, MaxDepth: 8})
		for k := uint64(0); k < keys; k++ {
			tbl.LoadDirect(k, k)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	n := float64(b.N) * keys
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/key")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/n, "allocs/key")
}
