package sherman

import (
	"encoding/binary"
	"slices"

	"repro/internal/core"
	"repro/internal/sim"
)

// specEntry is one speculative-lookup cache entry: where this key's
// entry lived the last time we saw it.
type specEntry struct {
	leaf uint64 // packed leaf address
	slot int
}

// Client is one compute blade's view of a Tree: a private copy of the
// internal-node cache, the local level of the hierarchical lock, and
// (optionally) the speculative-lookup cache. All data-path access is
// one-sided verbs on a core.Ctx.
type Client struct {
	t    *Tree
	root *cachedInternal
	// nodes is this blade's index cache, keyed by packed address.
	nodes map[uint64]*cachedInternal
	// spec is the speculative lookup cache (nil when disabled). It is
	// deliberately small — "a small cache" in §5.2 — so under heavy
	// skew it holds the hot keys and cold lookups take the fallback.
	spec     map[uint64]specEntry
	specCap  int
	specRing []uint64 // FIFO of cached keys for eviction
	specNext int
	// locks is the local (on-blade) level of the hierarchical lock:
	// one mutex per leaf, so at most one local thread contends for the
	// remote lock word — Sherman's HOCL idea.
	locks    map[uint64]*sim.Mutex
	treeLock *sim.Mutex
	eng      *sim.Engine

	// SpecHits / SpecMisses count fast-path outcomes.
	SpecHits, SpecMisses uint64
	// Splits counts leaf splits performed by this client.
	Splits uint64
}

// NewClient builds a client view. speculative enables the SMART-BT
// fast path.
func NewClient(t *Tree, eng *sim.Engine, speculative bool) *Client {
	cl := &Client{
		t:        t,
		nodes:    make(map[uint64]*cachedInternal, len(t.nodes)),
		locks:    make(map[uint64]*sim.Mutex),
		treeLock: sim.NewMutex(eng),
		eng:      eng,
	}
	if speculative {
		cl.spec = make(map[uint64]specEntry)
		cl.specCap = DefaultSpecCacheEntries
		cl.specRing = make([]uint64, 0, cl.specCap)
	}
	// Private deep copy of the index cache: another blade's splits
	// must not be visible until this blade refreshes its own cache.
	for k, n := range t.nodes {
		cp := *n
		cp.keys = append([]uint64(nil), n.keys...)
		cp.children = append([]uint64(nil), n.children...)
		cl.nodes[k] = &cp
	}
	cl.root = cl.nodes[packAddr(t.root.addr)]
	return cl
}

// DefaultSpecCacheEntries bounds the speculative-lookup cache.
const DefaultSpecCacheEntries = 16384

// SetSpecCacheEntries resizes the cache bound (tests and ablations).
func (cl *Client) SetSpecCacheEntries(n int) {
	if cl.spec != nil && n > 0 {
		cl.specCap = n
	}
}

// specPut inserts a cache entry, evicting the oldest when full. The
// ring holds exactly the cached keys, oldest first from specNext
// (wrapping), so a new key goes in just before specNext.
func (cl *Client) specPut(key uint64, e specEntry) {
	if cl.spec == nil {
		return
	}
	if _, ok := cl.spec[key]; !ok {
		switch {
		case len(cl.spec) >= cl.specCap:
			victim := cl.specRing[cl.specNext]
			delete(cl.spec, victim)
			cl.specRing[cl.specNext] = key
			cl.specNext = (cl.specNext + 1) % len(cl.specRing)
		case cl.specNext == 0:
			cl.specRing = append(cl.specRing, key)
		default: // a specDrop left room mid-ring
			cl.specRing = slices.Insert(cl.specRing, cl.specNext, key)
			cl.specNext++
		}
	}
	cl.spec[key] = e
}

// specDrop removes key's entry and its ring slot, keeping the others'
// eviction order. It runs only when a speculative read finds the key
// moved, so its scan of the ring is off the hit path. The read parks,
// and another coroutine sharing the client may have dropped or evicted
// the key meanwhile: then there is nothing left to remove.
func (cl *Client) specDrop(key uint64) {
	if _, ok := cl.spec[key]; !ok {
		return
	}
	delete(cl.spec, key)
	i := slices.Index(cl.specRing, key)
	cl.specRing = slices.Delete(cl.specRing, i, i+1)
	if i < cl.specNext {
		cl.specNext--
	}
	if cl.specNext == len(cl.specRing) {
		cl.specNext = 0
	}
}

// localLock returns the local-level mutex for a leaf.
func (cl *Client) localLock(leaf uint64) *sim.Mutex {
	m := cl.locks[leaf]
	if m == nil {
		m = sim.NewMutex(cl.eng)
		cl.locks[leaf] = m
	}
	return m
}

// walkPath descends the cached internals to the packed address of
// key's leaf. ok is false when the cache is missing a node on the path
// (another blade restructured the tree); the caller must refreshPath
// and retry.
func (cl *Client) walkPath(key uint64) (leaf uint64, ok bool) {
	n := cl.root
	for {
		c := n.child(key)
		if n.leafKids {
			return c, true
		}
		n = cl.nodes[c]
		if n == nil {
			return 0, false
		}
	}
}

// refreshPath re-reads the root pointer and the internal nodes along
// key's path from their authoritative remote copies, repairing a stale
// index cache after another blade's split, and returns that path from
// the root down. The images are op-scoped (core.Ctx.Buf):
// parseInternal copies what the cache keeps.
func (cl *Client) refreshPath(c *core.Ctx, key uint64) (path []*cachedInternal) {
	w := c.Buf(8)
	c.ReadSync(cl.t.rootPtrAddr(), w)
	rootPacked := binary.LittleEndian.Uint64(w)
	addr := unpackAddr(rootPacked)
	for {
		buf := c.Buf(NodeBytes)
		c.ReadSync(addr, buf)
		n := parseInternal(addr, buf)
		cl.nodes[packAddr(addr)] = n
		path = append(path, n)
		if packAddr(addr) == rootPacked {
			cl.root = n
		}
		if n.leafKids {
			return path
		}
		addr = unpackAddr(n.child(key))
	}
}

// readLeaf fetches a full 1 KiB leaf image, valid until the op's EndOp.
func (cl *Client) readLeaf(c *core.Ctx, packed uint64) leafView {
	addr := unpackAddr(packed)
	v := leafView{raw: c.Buf(NodeBytes), addr: addr}
	c.ReadSync(addr, v.raw)
	return v
}

// Lookup finds key with Sherman's full-leaf READ.
func (cl *Client) Lookup(c *core.Ctx, key uint64) (uint64, bool) {
	c.BeginOp()
	defer c.EndOp()
	return cl.lookup(c, key)
}

func (cl *Client) lookup(c *core.Ctx, key uint64) (uint64, bool) {
	for {
		leaf, ok := cl.walkPath(key)
		if !ok {
			cl.refreshPath(c, key)
			continue
		}
		v := cl.readLeaf(c, leaf)
		if !v.covers(key) {
			cl.refreshPath(c, key)
			continue
		}
		i, ok := v.search(key)
		if !ok {
			return 0, false
		}
		if cl.spec != nil {
			cl.specPut(key, specEntry{leaf: leaf, slot: i})
		}
		return v.val(i), true
	}
}

// LookupSpec is the speculative lookup: a 16-byte READ at the cached
// entry position, falling back to the full lookup when the cache
// misses or the entry moved.
func (cl *Client) LookupSpec(c *core.Ctx, key uint64) (uint64, bool) {
	if cl.spec == nil {
		return cl.Lookup(c, key)
	}
	c.BeginOp()
	defer c.EndOp()
	if e, ok := cl.spec[key]; ok {
		buf := c.Buf(16)
		addr := unpackAddr(e.leaf).Add(entryOff(e.slot))
		c.ReadSync(addr, buf)
		if binary.LittleEndian.Uint64(buf[0:8]) == key {
			cl.SpecHits++
			return binary.LittleEndian.Uint64(buf[8:16]), true
		}
		cl.SpecMisses++
		cl.specDrop(key)
	} else {
		cl.SpecMisses++
	}
	return cl.lookup(c, key)
}

// lockLeaf acquires the hierarchical lock for a leaf: local mutex
// first, then the remote lock word via backoff CAS.
func (cl *Client) lockLeaf(c *core.Ctx, leaf uint64) *sim.Mutex {
	local := cl.localLock(leaf)
	local.Lock(c.Proc())
	lockAddr := unpackAddr(leaf).Add(leafLockOff)
	tag := uint64(c.T.ID + 1)
	for {
		if _, ok := c.BackoffCASSync(lockAddr, 0, tag); ok {
			return local
		}
	}
}

// unlockLeaf releases the remote lock word then the local mutex. The
// unlock WRITE may be batched with payload WRITEs by the caller; this
// helper issues it alone.
func (cl *Client) unlockLeaf(c *core.Ctx, leaf uint64, local *sim.Mutex) {
	c.WriteSync(unpackAddr(leaf).Add(leafLockOff), c.Buf(8))
	local.Unlock()
}

// Update inserts or updates key. In-place value updates WRITE the
// 16-byte entry and the lock release in one doorbell batch; inserts
// rewrite the leaf; a full leaf splits.
func (cl *Client) Update(c *core.Ctx, key, val uint64) {
	c.BeginOp()
	defer c.EndOp()
	for {
		leaf, ok := cl.walkPath(key)
		if !ok {
			cl.refreshPath(c, key)
			continue
		}
		local := cl.lockLeaf(c, leaf)
		v := cl.readLeaf(c, leaf)
		if !v.covers(key) {
			cl.unlockLeaf(c, leaf, local)
			cl.refreshPath(c, key)
			continue
		}
		i, found := v.search(key)
		switch {
		case found:
			// In-place value update: entry WRITE + unlock WRITE,
			// ordered by the QP, in one post.
			entry := c.Buf(16)
			binary.LittleEndian.PutUint64(entry[0:8], key)
			binary.LittleEndian.PutUint64(entry[8:16], val)
			c.Write(v.addr.Add(entryOff(i)), entry)
			c.Write(v.addr.Add(leafLockOff), c.Buf(8))
			c.Sync()
			local.Unlock()
			if cl.spec != nil {
				cl.specPut(key, specEntry{leaf: leaf, slot: i})
			}
			return
		case v.n() < LeafCap:
			cl.insertInLeaf(c, v, i, key, val)
			local.Unlock()
			if cl.spec != nil {
				cl.specPut(key, specEntry{leaf: leaf, slot: i})
			}
			return
		default:
			cl.splitLeaf(c, v)
			cl.unlockLeaf(c, leaf, local)
			// Retry: the key now maps to one of the halves.
		}
	}
}

// insertInLeaf rewrites the leaf with key inserted at slot i and
// releases the remote lock in the same batch.
func (cl *Client) insertInLeaf(c *core.Ctx, v leafView, i int, key, val uint64) {
	n := v.n()
	buf := c.Buf(NodeBytes)
	copy(buf, v.raw)
	copy(buf[entryOff(i)+16:entryOff(n)+16], v.raw[entryOff(i):entryOff(n)])
	binary.LittleEndian.PutUint64(buf[entryOff(i):], key)
	binary.LittleEndian.PutUint64(buf[entryOff(i)+8:], val)
	binary.LittleEndian.PutUint64(buf[leafNOff:], uint64(n+1))
	binary.LittleEndian.PutUint64(buf[leafLockOff:], 0) // release with the write
	c.Write(v.addr, buf)
	c.Sync()
}
