package sherman

import (
	"encoding/binary"
	"sort"

	"repro/internal/core"
)

// splitLeaf splits the (locked) full leaf v into two halves and
// threads the new separator into the internal levels. Structure
// changes are serialized across compute blades by the remote tree
// lock; other blades discover the change lazily through fence-key
// mismatches and refresh their index caches. The caller still holds
// the leaf lock and must release it afterwards.
func (cl *Client) splitLeaf(c *core.Ctx, v leafView) {
	cl.treeLock.Lock(c.Proc())
	for {
		if _, ok := c.BackoffCASSync(cl.t.treeLockAddr(), 0, uint64(c.T.ID+1)); ok {
			break
		}
	}
	cl.Splits++

	n := v.n()
	mid := n / 2
	sep := v.key(mid)
	// insertSeparator rewrites internal nodes from this blade's cache,
	// so re-read the path under the tree lock: another blade's split
	// may have changed it, and a stale image would drop its separator.
	path := cl.refreshPath(c, sep)
	newAddr := cl.t.allocNode()

	// Right half: entries [mid, n), unlocked.
	right := make([]byte, NodeBytes)
	binary.LittleEndian.PutUint64(right[leafNOff:], uint64(n-mid))
	binary.LittleEndian.PutUint64(right[leafLoOff:], sep)
	binary.LittleEndian.PutUint64(right[leafHiOff:], v.hi())
	copy(right[leafRightOff:leafRightOff+8], v.raw[leafRightOff:leafRightOff+8])
	copy(right[entryOff(0):], v.raw[entryOff(mid):entryOff(n)])

	// Left half: entries [0, mid), still carrying our lock tag.
	left := append([]byte(nil), v.raw...)
	binary.LittleEndian.PutUint64(left[leafNOff:], uint64(mid))
	binary.LittleEndian.PutUint64(left[leafHiOff:], sep)
	binary.LittleEndian.PutUint64(left[leafRightOff:], packAddr(newAddr))
	for i := mid; i < n; i++ {
		binary.LittleEndian.PutUint64(left[entryOff(i):], 0)
		binary.LittleEndian.PutUint64(left[entryOff(i)+8:], 0)
	}

	// Publish the right half before the left so a concurrent reader
	// following a stale pointer still finds consistent fences.
	c.Write(newAddr, right)
	c.Write(v.addr, left)
	c.Sync()

	cl.insertSeparator(c, path, len(path)-1, sep, packAddr(newAddr))

	var zero [8]byte
	c.WriteSync(cl.t.treeLockAddr(), zero[:])
	cl.treeLock.Unlock()
}

// insertSeparator threads (sep, rightChild) into path[level], splitting
// internal nodes upward as needed and growing the root when the top
// overflows. Each touched node's authoritative remote copy is
// rewritten.
func (cl *Client) insertSeparator(c *core.Ctx, path []*cachedInternal, level int, sep uint64, rightChild uint64) {
	if level < 0 {
		// The root itself split: grow the tree by one level.
		oldRoot := cl.root
		newRoot := &cachedInternal{
			addr:     cl.t.allocNode(),
			keys:     []uint64{sep},
			children: []uint64{packAddr(oldRoot.addr), rightChild},
			leafKids: false,
		}
		cl.nodes[packAddr(newRoot.addr)] = newRoot
		cl.root = newRoot
		cl.t.height++
		c.Write(newRoot.addr, remoteInternalBytes(newRoot))
		var ptr [8]byte
		binary.LittleEndian.PutUint64(ptr[:], packAddr(newRoot.addr))
		c.Write(cl.t.rootPtrAddr(), ptr[:])
		c.Sync()
		return
	}
	node := path[level]
	i := sort.Search(len(node.keys), func(i int) bool { return node.keys[i] >= sep })
	node.keys = append(node.keys, 0)
	copy(node.keys[i+1:], node.keys[i:])
	node.keys[i] = sep
	node.children = append(node.children, 0)
	copy(node.children[i+2:], node.children[i+1:])
	node.children[i+1] = rightChild

	if len(node.keys) <= IntCap {
		c.WriteSync(node.addr, remoteInternalBytes(node))
		return
	}

	// Internal overflow: split around the median, promote it upward.
	mid := len(node.keys) / 2
	promote := node.keys[mid]
	rightNode := &cachedInternal{
		addr:     cl.t.allocNode(),
		keys:     append([]uint64(nil), node.keys[mid+1:]...),
		children: append([]uint64(nil), node.children[mid+1:]...),
		leafKids: node.leafKids,
	}
	node.keys = node.keys[:mid]
	node.children = node.children[:mid+1]
	cl.nodes[packAddr(rightNode.addr)] = rightNode
	c.Write(rightNode.addr, remoteInternalBytes(rightNode))
	c.Write(node.addr, remoteInternalBytes(node))
	c.Sync()
	cl.insertSeparator(c, path, level-1, promote, packAddr(rightNode.addr))
}
