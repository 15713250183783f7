package race

import (
	"encoding/binary"

	"repro/internal/blade"
	"repro/internal/core"
	"repro/internal/sim"
)

// split performs an extendible-hashing segment split over one-sided
// verbs. It serializes against other splits with the directory lock
// word (a coarse-grained simplification of RACE's lock-free protocol —
// splits are off the hot path and never occur in the paper's pre-sized
// benchmarks).
//
// Publication order keeps concurrent readers safe: the new segment is
// fully written before any directory pointer moves, and moved entries
// are only cleared from the old segment afterwards.
func (cl *Client) split(c *core.Ctx, key uint64, seen dirEntry) {
	t := cl.t
	lockAddr := t.dirAddr.Add(dirLockOff)
	if _, ok := c.BackoffCASSync(lockAddr, 0, 1); !ok {
		// Another client is resizing; give it time and retry the op.
		c.Proc().Sleep(t.cfg.splitBackoff())
		cl.refresh(c, key)
		return
	}
	defer c.WriteSync(lockAddr, encode8(0))

	// Re-read authoritative state under the lock.
	var w [8]byte
	c.ReadSync(t.dirAddr.Add(dirGDOff), w[:])
	gd := int(binary.LittleEndian.Uint64(w[:]))
	idx := dirIndex(key, gd)
	c.ReadSync(t.dirEntryAddr(idx), w[:])
	e := dirEntry(binary.LittleEndian.Uint64(w[:]))
	if e != seen {
		// Someone already split this segment; refresh and retry.
		cl.gd = gd
		cl.dir[idx] = e
		return
	}
	cl.Splits++
	ld := int(e.localDepth())

	// Directory doubling: copy the live half up, then publish gd+1.
	if ld == gd {
		if gd >= t.cfg.MaxDepth {
			panic("race: directory at MaxDepth and segment full; raise Groups or MaxDepth")
		}
		half := make([]byte, 8<<uint(gd))
		c.ReadSync(t.dirEntryAddr(0), half)
		c.WriteSync(t.dirEntryAddr(1<<uint(gd)), half)
		gd++
		c.WriteSync(t.dirAddr.Add(dirGDOff), encode8(uint64(gd)))
	}

	oldSuffix := idx & (1<<uint(ld) - 1)
	newSuffix := oldSuffix | 1<<uint(ld)

	// Fetch the whole segment in one large READ, then the keys of all
	// occupied slots (batched small READs) to partition them.
	segBuf := make([]byte, t.cfg.segBytes())
	c.ReadSync(e.segAddr(), segBuf)
	type occSlot struct {
		byteOff int // within segment buffer
		s       slot
		key     uint64
	}
	var occ []occSlot
	kvBufs := make([][]byte, 0, 256)
	flush := func() {
		if len(kvBufs) == 0 {
			return
		}
		c.Sync()
		for i := range kvBufs {
			occ[len(occ)-len(kvBufs)+i].key = binary.LittleEndian.Uint64(kvBufs[i][:8])
		}
		kvBufs = kvBufs[:0]
	}
	for g := 0; g < t.cfg.Groups; g++ {
		for b := 0; b < 3; b++ {
			for si := 0; si < SlotsPerBucket; si++ {
				off := 8 + g*GroupBytes + b*BucketBytes + 8*(1+si)
				s := slot(binary.LittleEndian.Uint64(segBuf[off : off+8]))
				if s.empty() {
					continue
				}
				occ = append(occ, occSlot{byteOff: off, s: s})
				buf := make([]byte, 8)
				kvBufs = append(kvBufs, buf)
				c.Read(blade.Addr{Blade: e.bladeID(), Offset: s.kvOff()}, buf)
				if len(kvBufs) == 128 {
					flush()
				}
			}
		}
	}
	flush()

	// Build the new segment image and scrub moved slots from the old.
	// The new segment lives on the same blade so KV pointers stay valid.
	newSegAddr := t.mem(e.bladeID()).Alloc(t.cfg.segBytes())
	newBuf := make([]byte, t.cfg.segBytes())
	newHdr := makeHeader(uint8(ld+1), uint32(newSuffix)).word()
	oldHdr := makeHeader(uint8(ld+1), uint32(oldSuffix)).word()
	for g := 0; g < t.cfg.Groups; g++ {
		for b := 0; b < 3; b++ {
			off := 8 + g*GroupBytes + b*BucketBytes
			binary.LittleEndian.PutUint64(newBuf[off:off+8], newHdr)
			binary.LittleEndian.PutUint64(segBuf[off:off+8], oldHdr)
		}
	}
	for _, o := range occ {
		if dirIndex(o.key, ld+1) == newSuffix {
			binary.LittleEndian.PutUint64(newBuf[o.byteOff:o.byteOff+8], o.s.word())
			binary.LittleEndian.PutUint64(segBuf[o.byteOff:o.byteOff+8], 0)
		}
	}

	// 1) publish the new segment, 2) swing directory pointers,
	// 3) scrub the old segment.
	c.WriteSync(newSegAddr, newBuf)
	newEntry := makeDirEntry(uint8(ld+1), newSegAddr.Blade, newSegAddr.Offset)
	oldEntry := makeDirEntry(uint8(ld+1), e.bladeID(), e.segOff())
	for i := 0; i < 1<<uint(gd); i++ {
		switch {
		case i&(1<<uint(ld+1)-1) == newSuffix:
			c.Write(t.dirEntryAddr(i), encode8(newEntry.word()))
			cl.dir[i] = newEntry
		case i&(1<<uint(ld)-1) == oldSuffix:
			c.Write(t.dirEntryAddr(i), encode8(oldEntry.word()))
			cl.dir[i] = oldEntry
		}
	}
	c.Sync()
	c.WriteSync(e.segAddr(), segBuf)
	cl.gd = gd
}

// splitBackoff is how long a client waits when it finds the directory
// locked by a concurrent resize.
func (c *Config) splitBackoff() sim.Time { return 20 * sim.Microsecond }

func encode8(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}
