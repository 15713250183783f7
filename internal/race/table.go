package race

import (
	"encoding/binary"
	"fmt"

	"repro/internal/blade"
	"repro/internal/verbs"
)

// Config sizes a table.
type Config struct {
	// Groups is the number of 192-byte bucket groups per segment
	// (default 512 ⇒ ~7k slots per segment).
	Groups int
	// InitialDepth is the starting global depth (default 1).
	InitialDepth int
	// MaxDepth bounds the directory (2^MaxDepth entries are
	// pre-allocated so doubling never relocates it; default 12).
	MaxDepth int
}

func (c *Config) withDefaults() {
	if c.Groups <= 0 {
		c.Groups = 512
	}
	if c.InitialDepth <= 0 {
		c.InitialDepth = 1
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.InitialDepth > c.MaxDepth {
		c.InitialDepth = c.MaxDepth
	}
}

// segBytes is the on-blade size of one segment: a lock word followed
// by the bucket groups.
func (c *Config) segBytes() uint64 { return 8 + uint64(c.Groups)*GroupBytes }

// Table is the authoritative hash table resident in blade memory. The
// directory lives on the first memory blade; segments are spread
// round-robin across all blades. Methods on Table operate directly on
// memory and are for setup (bulk load) and verification; all runtime
// access goes through Client over one-sided verbs.
type Table struct {
	cfg     Config
	targets []verbs.Target

	dirAddr  blade.Addr // [gd | dirLock | entry[2^MaxDepth]]
	segAlloc int        // round-robin cursor for new segments
}

// Directory word offsets.
const (
	dirGDOff   = 0
	dirLockOff = 8
	dirEntry0  = 16
)

// Create builds an empty table across the given memory blades.
func Create(targets []verbs.Target, cfg Config) *Table {
	if len(targets) == 0 {
		panic("race: no memory blades")
	}
	cfg.withDefaults()
	t := &Table{cfg: cfg, targets: targets}
	dirBytes := uint64(dirEntry0) + 8<<uint(cfg.MaxDepth)
	t.dirAddr = targets[0].Mem.Alloc(dirBytes)
	t.setGD(cfg.InitialDepth)
	for i := 0; i < 1<<uint(cfg.InitialDepth); i++ {
		seg := t.newSegment(uint8(cfg.InitialDepth), uint32(i))
		t.writeDirEntry(i, makeDirEntry(uint8(cfg.InitialDepth), seg.Blade, seg.Offset))
	}
	return t
}

func (t *Table) mem(bladeID int) *blade.Blade {
	for _, tgt := range t.targets {
		if tgt.Mem.ID == bladeID {
			return tgt.Mem
		}
	}
	panic(fmt.Sprintf("race: unknown blade %d", bladeID))
}

func (t *Table) gd() int {
	return int(t.targets[0].Mem.Load8(t.dirAddr.Offset + dirGDOff))
}

func (t *Table) setGD(gd int) {
	t.targets[0].Mem.Store8(t.dirAddr.Offset+dirGDOff, uint64(gd))
}

func (t *Table) dirEntryAddr(idx int) blade.Addr {
	return t.dirAddr.Add(uint64(dirEntry0 + 8*idx))
}

func (t *Table) readDirEntry(idx int) dirEntry {
	return dirEntry(t.targets[0].Mem.Load8(t.dirEntryAddr(idx).Offset))
}

func (t *Table) writeDirEntry(idx int, e dirEntry) {
	t.targets[0].Mem.Store8(t.dirEntryAddr(idx).Offset, e.word())
}

// newSegment allocates and initializes a segment whose buckets carry
// the given local depth and suffix. Allocation rotates across blades.
func (t *Table) newSegment(localDepth uint8, suffix uint32) blade.Addr {
	tgt := t.targets[t.segAlloc%len(t.targets)]
	t.segAlloc++
	seg := tgt.Mem.Alloc(t.cfg.segBytes())
	t.initSegment(seg, localDepth, suffix)
	return seg
}

// initSegment writes fresh bucket headers (and zero slots) in place,
// one group image per write.
func (t *Table) initSegment(seg blade.Addr, localDepth uint8, suffix uint32) {
	mem := t.mem(seg.Blade)
	mem.Store8(seg.Offset, 0) // lock word
	var group [GroupBytes]byte
	h := makeHeader(localDepth, suffix).word()
	for b := 0; b < 3; b++ {
		binary.LittleEndian.PutUint64(group[b*BucketBytes:], h)
	}
	base := seg.Offset + 8
	for g := 0; g < t.cfg.Groups; g++ {
		mem.Write(base+uint64(g*GroupBytes), group[:])
	}
}

// groupsBase returns the address of group 0 in a segment.
func groupsBase(seg blade.Addr) blade.Addr { return seg.Add(8) }

// dirIndex returns the directory index for key under depth gd.
func dirIndex(key uint64, gd int) int {
	return int(dirIndexHash(key) & (1<<uint(gd) - 1))
}

// --- Direct (setup-time) operations -------------------------------

// LoadDirect inserts or updates a key without RDMA, splitting segments
// as needed. It is the bulk-load path; layout is identical to what the
// RDMA client produces.
func (t *Table) LoadDirect(key, val uint64) {
	for {
		gd := t.gd()
		idx := dirIndex(key, gd)
		e := t.readDirEntry(idx)
		if t.tryPutDirect(e, key, val) {
			return
		}
		t.splitDirect(idx)
	}
}

// tryPutDirect attempts the put in segment e; false means "segment
// candidates full, split needed". Insertion order fixes the layout, so
// it makes the RDMA client's decisions in the client's order: an
// existing key is updated in place (pair 0 searched before pair 1),
// otherwise the key goes to the lowest empty slot, in slotAt scan
// order, of the emptier pair (pair 0 on a tie). Each pair is read once
// into a stack copy and scanned once.
func (t *Table) tryPutDirect(e dirEntry, key, val uint64) bool {
	mem := t.mem(e.bladeID())
	pairs := pairsFor(key, groupsBase(e.segAddr()), t.cfg.Groups)
	fp := fingerprint(key)
	var raw [2][PairBytes]byte
	for p, pr := range pairs {
		mem.ReadInto(pr.addr.Offset, raw[p][:])
	}
	var used [2]int
	free := [2]int{-1, -1} // byte offset in the pair of the first empty slot
	for p, pr := range pairs {
		main, ovf := 0, BucketBytes
		if !pr.mainFirst {
			main, ovf = ovf, main
		}
		for _, bucket := range [2]int{main, ovf} {
			for off := bucket + 8; off < bucket+BucketBytes; off += 8 {
				s := slot(binary.LittleEndian.Uint64(raw[p][off:]))
				if s.empty() {
					if free[p] < 0 {
						free[p] = off
					}
					continue
				}
				if s.fp() == fp {
					if k, _ := readKV(mem, s); k == key {
						putKV(mem, pr.addr.Offset+uint64(off), key, val)
						return true
					}
				}
				used[p]++
			}
		}
	}
	p := 0
	if used[1] < used[0] {
		p = 1
	}
	for _, q := range [2]int{p, 1 - p} {
		if free[q] >= 0 {
			putKV(mem, pairs[q].addr.Offset+uint64(free[q]), key, val)
			return true
		}
	}
	return false
}

// readKV reads the KV block slot s points at.
func readKV(mem *blade.Blade, s slot) (key, val uint64) {
	var kv [KVBytes]byte
	mem.ReadInto(s.kvOff(), kv[:])
	return decodeKV(kv[:])
}

// putKV allocates a KV block for key/val on mem, writes it, and points
// the slot word at slotOff (on the same blade) to it.
func putKV(mem *blade.Blade, slotOff, key, val uint64) {
	kv := mem.Alloc(KVBytes)
	var b [KVBytes]byte
	mem.Write(kv.Offset, encodeKV(b[:], key, val))
	mem.Store8(slotOff, makeSlot(fingerprint(key), kv.Offset).word())
}

func countUsed(v pairView) int {
	n := 0
	for i := 0; i < totalSlots; i++ {
		if s, _ := v.slotAt(i); !s.empty() {
			n++
		}
	}
	return n
}

// GetDirect reads a key without RDMA (verification helper).
func (t *Table) GetDirect(key uint64) (uint64, bool) {
	e := t.readDirEntry(dirIndex(key, t.gd()))
	mem := t.mem(e.bladeID())
	fp := fingerprint(key)
	var raw [PairBytes]byte
	for _, pr := range pairsFor(key, groupsBase(e.segAddr()), t.cfg.Groups) {
		mem.ReadInto(pr.addr.Offset, raw[:])
		v := pairView{raw: raw[:], ref: pr}
		for i := 0; i < totalSlots; i++ {
			if s, _ := v.slotAt(i); !s.empty() && s.fp() == fp {
				if k, val := readKV(mem, s); k == key {
					return val, true
				}
			}
		}
	}
	return 0, false
}

// splitDirect splits the segment owning directory index idx, doubling
// the directory first if its local depth equals the global depth.
func (t *Table) splitDirect(idx int) {
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
	newSeg := t.newSegment(uint8(ld+1), uint32(newSuffix))
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
				k, v := readKV(oldMem, sl)
				if dirIndex(k, ld+1) == newSuffix {
					oldMem.Store8(sOff, 0)
					// Re-insert into the new segment at the mirrored
					// position (same group/bucket/slot is free there).
					nOff := newBase.Offset + uint64(g*GroupBytes+b*BucketBytes) + 8*uint64(1+s)
					putKV(newMem, nOff, k, v)
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

// Segments returns the number of distinct segments (diagnostic).
func (t *Table) Segments() int {
	seen := map[uint64]bool{}
	for i := 0; i < 1<<uint(t.gd()); i++ {
		seen[t.readDirEntry(i).word()&((1<<56)-1)] = true
	}
	return len(seen)
}

// GlobalDepth returns the current directory depth.
func (t *Table) GlobalDepth() int { return t.gd() }
