// Package sherman implements a disaggregated B⁺Tree after Sherman
// (Wang et al., SIGMOD'22), plus SMART-BT: the same tree run through
// the SMART framework with the speculative-lookup optimization from
// §5.2 of the SMART paper.
//
// Tree structure: fixed 1 KiB nodes in blade memory. Internal nodes
// are cached on every compute blade (Sherman's index cache), so an
// operation walks the cache and touches remote memory only at the
// leaf:
//
//   - A plain lookup READs the entire 1 KiB leaf and searches it
//     locally — the read-amplified, bandwidth-bound pattern the SMART
//     paper diagnoses.
//   - A speculative lookup first consults a local key→(leaf,slot)
//     cache and READs just the 16-byte entry; a key mismatch (entry
//     moved by an insert or split) falls back to the full lookup and
//     repairs the cache. This turns the workload IOPS-bound.
//   - Writes take the leaf's hierarchical lock: a local (on compute
//     blade) mutex first — so only one thread per blade contends
//     remotely, Sherman's HOCL idea — then the remote lock word via
//     CAS, then WRITE the 16-byte entry in place (safe under the
//     per-cacheline-version scheme Sherman+ retrofits from FaRM; our
//     simulated READs are atomic snapshots, so versions are not
//     re-validated) and WRITE the lock word back to zero.
//
// Leaf layout (1024 B):
//
//	[ lock | nkeys | fenceLo | fenceHi | right | pad24 | entry[60] ]
//	entry = [ key | value ]  (16 B)
//
// Leaves carry fence keys; a lookup whose key falls outside the
// fetched leaf's fences detects a stale index cache and refreshes the
// path from the authoritative remote copy of the internal nodes.
package sherman

import (
	"encoding/binary"
	"sort"

	"repro/internal/blade"
	"repro/internal/verbs"
)

const (
	// NodeBytes is the size of every tree node, as in Sherman.
	NodeBytes = 1024
	// LeafCap is the number of entries per leaf.
	LeafCap = (NodeBytes - leafHdr) / 16
	// leafHdr is the leaf header size.
	leafHdr = 64
	// IntCap is the fanout of internal nodes (kept in local cache and
	// mirrored remotely: nkeys + keys[IntCap] + children[IntCap+1]).
	IntCap = 56

	leafLockOff  = 0
	leafNOff     = 8
	leafLoOff    = 16
	leafHiOff    = 24
	leafRightOff = 32
	leafEntries  = leafHdr
)

// MaxKey is an out-of-band key used as the +∞ fence.
const MaxKey = ^uint64(0)

// packAddr encodes a node address into one word (blade | offset).
func packAddr(a blade.Addr) uint64 {
	return uint64(uint8(a.Blade))<<48 | (a.Offset & ((1 << 48) - 1))
}

func unpackAddr(w uint64) blade.Addr {
	return blade.Addr{Blade: int(uint8(w >> 48)), Offset: w & ((1 << 48) - 1)}
}

// entryOff returns the byte offset of entry slot i within a leaf.
func entryOff(i int) uint64 { return leafEntries + 16*uint64(i) }

// leafView wraps a fetched leaf image.
type leafView struct {
	raw  []byte
	addr blade.Addr
}

func (v leafView) n() int     { return int(binary.LittleEndian.Uint64(v.raw[leafNOff:])) }
func (v leafView) lo() uint64 { return binary.LittleEndian.Uint64(v.raw[leafLoOff:]) }
func (v leafView) hi() uint64 { return binary.LittleEndian.Uint64(v.raw[leafHiOff:]) }
func (v leafView) key(i int) uint64 {
	return binary.LittleEndian.Uint64(v.raw[entryOff(i):])
}
func (v leafView) val(i int) uint64 {
	return binary.LittleEndian.Uint64(v.raw[entryOff(i)+8:])
}

// covers reports whether key belongs to this leaf's fence range.
func (v leafView) covers(key uint64) bool {
	return key >= v.lo() && (v.hi() == MaxKey || key < v.hi())
}

// search returns (slot, found) for key via binary search.
func (v leafView) search(key uint64) (int, bool) {
	n := v.n()
	i := sort.Search(n, func(i int) bool { return v.key(i) >= key })
	return i, i < n && v.key(i) == key
}

// cachedInternal is a compute-blade-cached internal node.
type cachedInternal struct {
	addr     blade.Addr // authoritative remote copy
	keys     []uint64   // separator keys (len = nkeys)
	children []uint64   // packed child addrs (len = nkeys+1)
	leafKids bool       // children are leaves
}

// child returns the packed child address covering key.
func (n *cachedInternal) child(key uint64) uint64 {
	i := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
	return n.children[i]
}

// remoteInternalBytes serializes an internal node for its remote copy:
// [nkeys | leafKids | keys... | children...].
func remoteInternalBytes(n *cachedInternal) []byte {
	b := make([]byte, NodeBytes)
	binary.LittleEndian.PutUint64(b[0:], uint64(len(n.keys)))
	flag := uint64(0)
	if n.leafKids {
		flag = 1
	}
	binary.LittleEndian.PutUint64(b[8:], flag)
	for i, k := range n.keys {
		binary.LittleEndian.PutUint64(b[16+8*i:], k)
	}
	base := 16 + 8*IntCap
	for i, c := range n.children {
		binary.LittleEndian.PutUint64(b[base+8*i:], c)
	}
	return b
}

func parseInternal(addr blade.Addr, b []byte) *cachedInternal {
	n := int(binary.LittleEndian.Uint64(b[0:]))
	node := &cachedInternal{addr: addr, leafKids: binary.LittleEndian.Uint64(b[8:]) == 1}
	for i := 0; i < n; i++ {
		node.keys = append(node.keys, binary.LittleEndian.Uint64(b[16+8*i:]))
	}
	base := 16 + 8*IntCap
	for i := 0; i <= n; i++ {
		node.children = append(node.children, binary.LittleEndian.Uint64(b[base+8*i:]))
	}
	return node
}

// Tree is the authoritative B⁺Tree in blade memory plus the bulk-load
// machinery. Runtime access goes through per-compute-blade Clients.
type Tree struct {
	targets []verbs.Target
	root    *cachedInternal // built at load time; Clients copy it
	height  int
	alloc   int // round-robin blade cursor for node placement
	nodes   map[uint64]*cachedInternal
	// meta holds [structure-lock | root-pointer] on the first blade.
	meta blade.Addr
}

// treeLockAddr is the remote word serializing structure changes
// (splits) across compute blades.
func (t *Tree) treeLockAddr() blade.Addr { return t.meta }

// rootPtrAddr is the remote word holding the packed root address.
func (t *Tree) rootPtrAddr() blade.Addr { return t.meta.Add(8) }

func (t *Tree) mem(bladeID int) *blade.Blade {
	for _, tgt := range t.targets {
		if tgt.Mem.ID == bladeID {
			return tgt.Mem
		}
	}
	panic("sherman: unknown blade")
}

func (t *Tree) allocNode() blade.Addr {
	tgt := t.targets[t.alloc%len(t.targets)]
	t.alloc++
	return tgt.Mem.Alloc(NodeBytes)
}

// BulkLoad builds a tree over the sorted keys with values vals (or
// key-as-value when vals is nil), at the given leaf fill fraction.
func BulkLoad(targets []verbs.Target, keys []uint64, fill float64) *Tree {
	if len(targets) == 0 {
		panic("sherman: no blades")
	}
	if fill <= 0 || fill > 1 {
		fill = 0.7
	}
	t := &Tree{targets: targets, nodes: map[uint64]*cachedInternal{}}
	t.meta = targets[0].Mem.Alloc(16)
	perLeaf := int(float64(LeafCap) * fill)
	if perLeaf < 1 {
		perLeaf = 1
	}

	// Build leaves: pre-allocate their addresses so each leaf can be
	// written with its right-sibling pointer (Sherman's leaf chain; a
	// split threads the new right half into it).
	type leafRef struct {
		addr     blade.Addr
		lo       uint64
		from, to int // key range [from, to)
	}
	var leaves []leafRef
	for i := 0; i < len(keys); i += perLeaf {
		end := i + perLeaf
		if end > len(keys) {
			end = len(keys)
		}
		lo := uint64(0)
		if i > 0 {
			lo = keys[i]
		}
		leaves = append(leaves, leafRef{addr: t.allocNode(), lo: lo, from: i, to: end})
	}
	if len(leaves) == 0 {
		leaves = append(leaves, leafRef{addr: t.allocNode()})
	}
	for li, l := range leaves {
		buf := make([]byte, NodeBytes)
		binary.LittleEndian.PutUint64(buf[leafNOff:], uint64(l.to-l.from))
		binary.LittleEndian.PutUint64(buf[leafLoOff:], l.lo)
		hi := MaxKey
		if li+1 < len(leaves) {
			hi = keys[leaves[li+1].from]
			binary.LittleEndian.PutUint64(buf[leafRightOff:], packAddr(leaves[li+1].addr))
		}
		binary.LittleEndian.PutUint64(buf[leafHiOff:], hi)
		for j := l.from; j < l.to; j++ {
			binary.LittleEndian.PutUint64(buf[entryOff(j-l.from):], keys[j])
			binary.LittleEndian.PutUint64(buf[entryOff(j-l.from)+8:], keys[j])
		}
		t.mem(l.addr.Blade).Write(l.addr.Offset, buf)
	}

	// Build internal levels bottom-up.
	type nodeRef struct {
		packed uint64
		lo     uint64
	}
	level := make([]nodeRef, len(leaves))
	for i, l := range leaves {
		level[i] = nodeRef{packed: packAddr(l.addr), lo: l.lo}
	}
	leafLevel := true
	t.height = 1
	for len(level) > 1 || leafLevel {
		var next []nodeRef
		for i := 0; i < len(level); i += IntCap {
			end := i + IntCap
			if end > len(level) {
				end = len(level)
			}
			n := &cachedInternal{addr: t.allocNode(), leafKids: leafLevel}
			for j := i; j < end; j++ {
				if j > i {
					n.keys = append(n.keys, level[j].lo)
				}
				n.children = append(n.children, level[j].packed)
			}
			t.mem(n.addr.Blade).Write(n.addr.Offset, remoteInternalBytes(n))
			t.nodes[packAddr(n.addr)] = n
			next = append(next, nodeRef{packed: packAddr(n.addr), lo: level[i].lo})
		}
		level = next
		leafLevel = false
		t.height++
		if len(level) == 1 {
			break
		}
	}
	t.root = t.nodes[level[0].packed]
	targets[0].Mem.Store8(t.rootPtrAddr().Offset, level[0].packed)
	return t
}

// Height returns the number of levels including the leaf level.
func (t *Tree) Height() int { return t.height }

// Targets returns the memory blades backing the tree.
func (t *Tree) Targets() []verbs.Target { return t.targets }

// GetDirect reads a key without RDMA (verification helper). It walks
// the authoritative remote node images, so it stays correct after any
// client's splits.
func (t *Tree) GetDirect(key uint64) (uint64, bool) {
	addr := unpackAddr(t.targets[0].Mem.Load8(t.rootPtrAddr().Offset))
	for {
		n := parseInternal(addr, t.mem(addr.Blade).Read(addr.Offset, NodeBytes))
		child := unpackAddr(n.child(key))
		if n.leafKids {
			v := leafView{raw: t.mem(child.Blade).Read(child.Offset, NodeBytes), addr: child}
			if i, ok := v.search(key); ok {
				return v.val(i), true
			}
			return 0, false
		}
		addr = child
	}
}
