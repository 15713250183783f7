package race

import (
	"encoding/binary"

	"repro/internal/blade"
	"repro/internal/core"
)

// Client is one compute blade's view of a Table: a cached directory.
// All data-path access is through one-sided verbs on a core.Ctx; only
// the initial directory snapshot (bootstrap, normally an out-of-band
// RPC) and KV-block placement (alloc) are direct.
//
// Deviations from RACE proper, documented here and in DESIGN.md: the
// segment split takes a coarse directory lock instead of RACE's
// lock-free split protocol, and concurrent slot CASes racing with a
// split can be lost. Splits never occur in the paper's benchmarks
// (tables are pre-sized), so this does not affect any figure.
type Client struct {
	t   *Table
	gd  int
	dir map[int]dirEntry

	// Splits counts RDMA-path segment splits this client performed.
	Splits uint64
}

// NewClient bootstraps a client view of t.
func NewClient(t *Table) *Client {
	cl := &Client{t: t, dir: make(map[int]dirEntry)}
	cl.gd = t.gd()
	for i := 0; i < 1<<uint(cl.gd); i++ {
		cl.dir[i] = t.readDirEntry(i)
	}
	return cl
}

// entry returns the cached directory entry for key, fetching it
// remotely if the cache has no valid entry.
func (cl *Client) entry(c *core.Ctx, key uint64) dirEntry {
	idx := dirIndex(key, cl.gd)
	if e, ok := cl.dir[idx]; ok && e != 0 {
		return e
	}
	return cl.refresh(c, key)
}

// refresh re-reads the global depth and the key's directory entry.
func (cl *Client) refresh(c *core.Ctx, key uint64) dirEntry {
	buf := c.Buf(8)
	c.ReadSync(cl.t.dirAddr.Add(dirGDOff), buf)
	cl.gd = int(binary.LittleEndian.Uint64(buf))
	idx := dirIndex(key, cl.gd)
	c.ReadSync(cl.t.dirEntryAddr(idx), buf)
	e := dirEntry(binary.LittleEndian.Uint64(buf))
	cl.dir[idx] = e
	return e
}

// alloc places a new KV block on the given blade, from the blade's own
// cursor as the preload's putKV does, so blocks fill blade pages in
// turn. Placement costs no simulated time and the card model reads no
// address, so where a block lands moves no event.
func (cl *Client) alloc(bladeID int) blade.Addr {
	return cl.t.mem(bladeID).Alloc(KVBytes)
}

// fresh reports whether a fetched bucket header is consistent with the
// key (i.e., the cached directory entry was not stale).
func fresh(h header, key uint64) bool {
	ld := uint(h.localDepth())
	return uint32(dirIndexHash(key)&(1<<ld-1)) == h.suffix()
}

// readPairs fetches both candidate bucket pairs for key (plus an
// optional extra WR batched into the same doorbell ring). The views
// are op-scoped (core.Ctx.Buf): valid until EndOp.
func (cl *Client) readPairs(c *core.Ctx, e dirEntry, key uint64) [2]pairView {
	prs := pairsFor(key, groupsBase(e.segAddr()), cl.t.cfg.Groups)
	var views [2]pairView
	for i, pr := range prs {
		views[i] = pairView{raw: c.Buf(PairBytes), ref: pr}
		c.Read(pr.addr, views[i].raw)
	}
	c.Sync()
	return views
}

// readKV fetches the KV block a slot points at into buf, a KVBytes
// op-scoped buffer, and decodes it.
func (cl *Client) readKV(c *core.Ctx, bladeID int, s slot, buf []byte) (key, val uint64) {
	c.ReadSync(blade.Addr{Blade: bladeID, Offset: s.kvOff()}, buf)
	return decodeKV(buf)
}

// Lookup finds key, using the paper's three-READ protocol: two
// combined-bucket READs plus one KV READ.
func (cl *Client) Lookup(c *core.Ctx, key uint64) (uint64, bool) {
	c.BeginOp()
	defer c.EndOp()
	fp := fingerprint(key)
	for attempt := 0; ; attempt++ {
		e := cl.entry(c, key)
		views := cl.readPairs(c, e, key)
		if !fresh(views[0].headerOfMain(), key) {
			cl.refresh(c, key)
			continue
		}
		for _, v := range views {
			for i := 0; i < totalSlots; i++ {
				s, _ := v.slotAt(i)
				if s.empty() || s.fp() != fp {
					continue
				}
				if k, val := cl.readKV(c, e.bladeID(), s, c.Buf(KVBytes)); k == key {
					return val, true
				}
			}
		}
		return 0, false
	}
}

// Update inserts or updates key, returning the number of unsuccessful
// CAS retries the operation needed (Fig. 14's metric). The protocol:
// WRITE the new KV block and READ both bucket pairs in one batch,
// locate the slot, CAS it; on CAS failure re-read the pair, re-write
// the KV block, and CAS again — the three extra RDMA requests §3.3
// describes — with SMART's backoff applied when enabled.
func (cl *Client) Update(c *core.Ctx, key, val uint64) (retries int) {
	c.BeginOp()
	fp := fingerprint(key)
	for {
		e := cl.entry(c, key)
		kvAddr := cl.alloc(e.bladeID())
		c.Write(kvAddr, encodeKV(c.Buf(KVBytes), key, val))
		views := cl.readPairs(c, e, key) // batches the KV WRITE too
		if !fresh(views[0].headerOfMain(), key) {
			cl.refresh(c, key)
			continue
		}
		newSlot := makeSlot(fp, kvAddr.Offset)

		// Existing-key path: find the slot holding key and swap it.
		if done := cl.swapExisting(c, e, key, newSlot, views); done {
			return c.EndOp()
		}

		// Insert path: claim an empty slot in the emptier pair.
		order := [2]int{0, 1}
		if countUsed(views[1]) < countUsed(views[0]) {
			order = [2]int{1, 0}
		}
		var pair []byte // the re-read buffer: carved by the first lost race, reused by the rest
		for _, vi := range order {
			v := views[vi]
			for i := 0; i < totalSlots; i++ {
				s, addr := v.slotAt(i)
				if !s.empty() {
					continue
				}
				if _, ok := c.BackoffCASSync(addr, 0, newSlot.word()); ok {
					return c.EndOp()
				}
				// Slot was claimed under us; re-fetch this pair and
				// keep scanning (the claimer may even have been our
				// own key from another client).
				pair = c.ReuseBuf(pair, PairBytes)
				v = cl.refetch(c, v, pair)
				if cl.slotHoldsKey(c, e, v, key, fp, newSlot) {
					return c.EndOp()
				}
			}
		}

		// Both pairs full: split the segment and retry.
		cl.split(c, key, e)
	}
}

// swapExisting scans the fetched pairs for key and, when found, CASes
// the slot to newSlot, following §3.3's retry protocol on failure.
// Returns true when the update landed.
func (cl *Client) swapExisting(c *core.Ctx, e dirEntry, key uint64, newSlot slot, views [2]pairView) bool {
	fp := newSlot.fp()
	for _, v := range views {
		for i := 0; i < totalSlots; i++ {
			s, addr := v.slotAt(i)
			if s.empty() || s.fp() != fp {
				continue
			}
			if k, _ := cl.readKV(c, e.bladeID(), s, c.Buf(KVBytes)); k != key {
				continue
			}
			cur := s
			var pair, kv []byte // the retry's buffers: carved by its first round, reused by the rest
			for {
				if _, ok := c.BackoffCASSync(addr, cur.word(), newSlot.word()); ok {
					return true
				}
				// Retry: re-read the bucket pair, verify the slot
				// still holds our key, and CAS the refreshed value.
				pair = c.ReuseBuf(pair, PairBytes)
				v = cl.refetch(c, v, pair)
				ns, _ := v.slotAt(i)
				if ns.empty() || ns.fp() != fp {
					return false // slot scrubbed by a split or replaced: restart outer
				}
				kv = c.ReuseBuf(kv, KVBytes)
				if k, _ := cl.readKV(c, e.bladeID(), ns, kv); k != key {
					return false
				}
				cur = ns
			}
		}
	}
	return false
}

// slotHoldsKey re-scans a refreshed pair for key and, if present,
// swaps it (used after losing an empty-slot race).
func (cl *Client) slotHoldsKey(c *core.Ctx, e dirEntry, v pairView, key uint64, fp uint8, newSlot slot) bool {
	return cl.swapExisting(c, e, key, newSlot, [2]pairView{v, v})
}

// refetch re-reads v's bucket pair into buf, a PairBytes op-scoped
// buffer, and returns it as a view.
func (cl *Client) refetch(c *core.Ctx, v pairView, buf []byte) pairView {
	nv := pairView{raw: buf, ref: v.ref}
	c.ReadSync(v.ref.addr, nv.raw)
	return nv
}
