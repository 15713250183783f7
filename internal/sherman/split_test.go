package sherman

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// readNode returns a copy of the authoritative remote image at packed.
func readNode(tree *Tree, packed uint64) leafView {
	addr := unpackAddr(packed)
	return leafView{raw: tree.mem(addr.Blade).Read(addr.Offset, NodeBytes), addr: addr}
}

// rootNode parses the internal node the remote root pointer names.
func rootNode(tree *Tree) *cachedInternal {
	addr := unpackAddr(tree.targets[0].Mem.Load8(tree.rootPtrAddr().Offset))
	return parseInternal(addr, tree.mem(addr.Blade).Read(addr.Offset, NodeBytes))
}

// leftmostLeaf descends the remote internal nodes along their first
// children to the head of the leaf chain.
func leftmostLeaf(tree *Tree) uint64 {
	n := rootNode(tree)
	for !n.leafKids {
		addr := unpackAddr(n.children[0])
		n = parseInternal(addr, tree.mem(addr.Blade).Read(addr.Offset, NodeBytes))
	}
	return n.children[0]
}

func (v leafView) word(off uint64) uint64 { return binary.LittleEndian.Uint64(v.raw[off:]) }

// A split of a full leaf leaves two halves whose fences meet at the
// separator, threads the new right half between the left half and the
// old right sibling, clears the entries the left half gave away, and
// releases the leaf and tree locks.
func TestSplitLeafHalvesFencesAndChain(t *testing.T) {
	cl := newCluster(t)
	tree := BulkLoad(cl.Targets(), seqKeys(2*LeafCap), 1.0) // two full leaves
	root := rootNode(tree)
	if len(root.children) != 2 || !root.leafKids {
		t.Fatalf("root has %d children (leafKids=%v), want two leaves", len(root.children), root.leafKids)
	}
	leftPacked, sibling := root.children[0], root.children[1]
	client := NewClient(tree, cl.Eng, false)
	runClient(t, cl, func(c *core.Ctx) {
		client.Update(c, 0, 77) // below every key: lands in the first, full leaf
	})
	if client.Splits != 1 {
		t.Fatalf("Splits = %d, want 1", client.Splits)
	}

	left := readNode(tree, leftPacked)
	rightPacked := left.word(leafRightOff)
	if rightPacked == sibling || rightPacked == 0 {
		t.Fatalf("left half's right pointer = %#x, want a new leaf", rightPacked)
	}
	right := readNode(tree, rightPacked)
	mid := LeafCap / 2
	sep := uint64(mid + 1) // seqKeys starts at 1
	if left.n() != mid+1 || right.n() != LeafCap-mid {
		t.Errorf("halves hold %d and %d entries, want %d and %d", left.n(), right.n(), mid+1, LeafCap-mid)
	}
	if left.lo() != 0 || left.hi() != sep || right.lo() != sep || right.hi() != LeafCap+1 {
		t.Errorf("fences [%d,%d) [%d,%d), want [0,%d) [%d,%d)", left.lo(), left.hi(), right.lo(), right.hi(), sep, sep, LeafCap+1)
	}
	if got := right.word(leafRightOff); got != sibling {
		t.Errorf("right half's right pointer = %#x, want the old sibling %#x", got, sibling)
	}
	if left.key(0) != 0 || left.val(0) != 77 {
		t.Errorf("left slot 0 = (%d,%d), want the inserted (0,77)", left.key(0), left.val(0))
	}
	for i := 0; i < right.n(); i++ {
		if k := right.key(i); k != sep+uint64(i) || right.val(i) != k {
			t.Fatalf("right slot %d = (%d,%d), want (%d,%d)", i, k, right.val(i), sep+uint64(i), sep+uint64(i))
		}
	}
	for i := left.n(); i < LeafCap; i++ {
		if left.key(i) != 0 || left.val(i) != 0 {
			t.Fatalf("left slot %d past its count holds (%d,%d)", i, left.key(i), left.val(i))
		}
	}
	if l, r := left.word(leafLockOff), right.word(leafLockOff); l != 0 || r != 0 {
		t.Errorf("leaf lock words = %d, %d after the update", l, r)
	}
	if w := tree.targets[0].Mem.Load8(tree.treeLockAddr().Offset); w != 0 {
		t.Errorf("tree lock word = %d after the split", w)
	}
	root = rootNode(tree)
	if len(root.keys) != 2 || root.keys[0] != sep || root.children[1] != rightPacked {
		t.Errorf("root keys %v children %#x: separator %d not threaded in", root.keys, root.children, sep)
	}
}

// After many splits the leaf chain, walked from its head through the
// right pointers, holds every key exactly once in ascending order, and
// each leaf's fences start where the previous leaf's ended.
func TestLeafChainAscendingAfterSplits(t *testing.T) {
	cl := newCluster(t)
	tree := BulkLoad(cl.Targets(), seqKeys(LeafCap), 1.0)
	client := NewClient(tree, cl.Eng, true)
	model := map[uint64]uint64{}
	for _, k := range seqKeys(LeafCap) {
		model[k] = k
	}
	rng := rand.New(rand.NewSource(9))
	runClient(t, cl, func(c *core.Ctx) {
		for i := 0; i < 1500; i++ {
			k := uint64(rng.Intn(1 << 16))
			client.Update(c, k, k+1)
			model[k] = k + 1
		}
	})
	if client.Splits < 10 {
		t.Fatalf("Splits = %d, want at least 10", client.Splits)
	}
	seen, leaves := 0, 0
	lo, prev := uint64(0), uint64(0)
	for packed := leftmostLeaf(tree); packed != 0; packed = readNode(tree, packed).word(leafRightOff) {
		v := readNode(tree, packed)
		leaves++
		if v.lo() != lo {
			t.Fatalf("leaf %d starts at %d, previous leaf ended at %d", leaves, v.lo(), lo)
		}
		for i := 0; i < v.n(); i++ {
			k := v.key(i)
			if seen > 0 && k <= prev {
				t.Fatalf("leaf %d slot %d: key %d after %d", leaves, i, k, prev)
			}
			if !v.covers(k) {
				t.Fatalf("leaf %d [%d,%d) holds key %d", leaves, v.lo(), v.hi(), k)
			}
			if want, ok := model[k]; !ok || v.val(i) != want {
				t.Fatalf("key %d = %d in the chain, model (%d,%v)", k, v.val(i), want, ok)
			}
			prev = k
			seen++
		}
		lo = v.hi()
	}
	if lo != MaxKey {
		t.Errorf("chain ends at fence %d, want MaxKey", lo)
	}
	if seen != len(model) {
		t.Errorf("chain holds %d keys, model %d", seen, len(model))
	}
	if want := int(client.Splits) + 1; leaves != want {
		t.Errorf("chain has %d leaves, want one per split plus the first (%d)", leaves, want)
	}
}

// A speculative entry for a key that a split moves to the new right
// half misses once, falls back to the full lookup, and is repaired, so
// the next speculative lookup is a one-WR hit at the new position.
func TestSpecLookupFollowsKeyMovedBySplit(t *testing.T) {
	cl := newCluster(t)
	tree := BulkLoad(cl.Targets(), seqKeys(LeafCap), 1.0)
	client := NewClient(tree, cl.Eng, true)
	const moved = LeafCap // last key of the only leaf: goes right
	runClient(t, cl, func(c *core.Ctx) {
		client.LookupSpec(c, moved)
		before := client.spec[moved]
		client.Update(c, 0, 1) // full leaf: splits
		if client.Splits != 1 {
			t.Errorf("Splits = %d, want 1", client.Splits)
			return
		}
		misses := client.SpecMisses
		if v, ok := client.LookupSpec(c, moved); !ok || v != moved {
			t.Errorf("LookupSpec(%d) after split = %d,%v", moved, v, ok)
		}
		if client.SpecMisses != misses+1 {
			t.Errorf("moved entry: %d spec misses, want 1", client.SpecMisses-misses)
		}
		if after := client.spec[moved]; after == before {
			t.Errorf("spec entry %+v not repaired", after)
		}
		hits, wrs := client.SpecHits, c.T.Stats.WRs
		if v, ok := client.LookupSpec(c, moved); !ok || v != moved {
			t.Errorf("repaired LookupSpec(%d) = %d,%v", moved, v, ok)
		}
		if client.SpecHits != hits+1 || c.T.Stats.WRs-wrs != 1 {
			t.Errorf("repaired entry: %d hits in %d WRs, want 1 in 1", client.SpecHits-hits, c.T.Stats.WRs-wrs)
		}
	})
}

// An insert below a cached key shifts it one slot right within the
// same leaf; the speculative read at the old slot sees the new key and
// falls back rather than returning the inserted key's value.
func TestSpecLookupAfterInsertShiftsSlot(t *testing.T) {
	cl := newCluster(t)
	tree := BulkLoad(cl.Targets(), []uint64{10, 20, 30}, 1.0)
	client := NewClient(tree, cl.Eng, true)
	runClient(t, cl, func(c *core.Ctx) {
		client.LookupSpec(c, 20)
		if e := client.spec[20]; e.slot != 1 {
			t.Errorf("key 20 cached at slot %d, want 1", e.slot)
		}
		client.Update(c, 15, 1500)
		misses := client.SpecMisses
		if v, ok := client.LookupSpec(c, 20); !ok || v != 20 {
			t.Errorf("LookupSpec(20) = %d,%v, want 20", v, ok)
		}
		if client.SpecMisses != misses+1 {
			t.Error("stale slot was taken as a hit")
		}
		if e := client.spec[20]; e.slot != 2 {
			t.Errorf("key 20 re-cached at slot %d, want 2", e.slot)
		}
		if v, ok := client.LookupSpec(c, 15); !ok || v != 1500 {
			t.Errorf("LookupSpec(15) = %d,%v, want 1500", v, ok)
		}
	})
	if client.Splits != 0 {
		t.Fatalf("Splits = %d: the insert should fit", client.Splits)
	}
}

// Keys between, below and above the loaded ones are absent on every
// read path.
func TestLookupAbsentKeysBetweenPresent(t *testing.T) {
	cl := newCluster(t)
	tree := BulkLoad(cl.Targets(), []uint64{10, 20, 30}, 0.7)
	client := NewClient(tree, cl.Eng, true)
	absent := []uint64{0, 9, 15, 25, 31, MaxKey - 1}
	runClient(t, cl, func(c *core.Ctx) {
		for _, k := range absent {
			if v, ok := client.Lookup(c, k); ok {
				t.Errorf("Lookup(%d) = %d, want absent", k, v)
			}
			if v, ok := client.LookupSpec(c, k); ok {
				t.Errorf("LookupSpec(%d) = %d, want absent", k, v)
			}
		}
		for _, k := range []uint64{10, 20, 30} {
			if v, ok := client.LookupSpec(c, k); !ok || v != k {
				t.Errorf("LookupSpec(%d) = %d,%v", k, v, ok)
			}
		}
	})
	for _, k := range absent {
		if _, ok := tree.GetDirect(k); ok {
			t.Errorf("GetDirect(%d) found an absent key", k)
		}
	}
	if _, ok := client.spec[15]; ok {
		t.Error("an absent key entered the speculative cache")
	}
}

// Updating an absent key inserts one entry; updating it again
// overwrites that entry in place instead of inserting a second.
func TestUpdateAbsentThenPresentKeepsOneEntry(t *testing.T) {
	cl := newCluster(t)
	tree := BulkLoad(cl.Targets(), []uint64{10, 20, 30}, 1.0)
	leaf := rootNode(tree).children[0]
	client := NewClient(tree, cl.Eng, false)
	runClient(t, cl, func(c *core.Ctx) {
		client.Update(c, 15, 1)
		if n := readNode(tree, leaf).n(); n != 4 {
			t.Errorf("after insert the leaf holds %d entries, want 4", n)
		}
		client.Update(c, 15, 2)
		if n := readNode(tree, leaf).n(); n != 4 {
			t.Errorf("after overwrite the leaf holds %d entries, want 4", n)
		}
		if v, ok := client.Lookup(c, 15); !ok || v != 2 {
			t.Errorf("Lookup(15) = %d,%v, want 2", v, ok)
		}
	})
	v := readNode(tree, leaf)
	want := []uint64{10, 15, 20, 30}
	for i, k := range want {
		if v.key(i) != k {
			t.Errorf("slot %d = %d, want %d", i, v.key(i), k)
		}
	}
	if v.word(leafLockOff) != 0 {
		t.Error("leaf lock still held")
	}
}

// Lookups past the speculative cache's capacity evict the oldest key
// first, and an evicted key still reads correctly through the fallback.
func TestEvictedKeyReadsThroughFallback(t *testing.T) {
	cl := newCluster(t)
	tree := BulkLoad(cl.Targets(), seqKeys(100), 0.7)
	client := NewClient(tree, cl.Eng, true)
	client.SetSpecCacheEntries(2)
	runClient(t, cl, func(c *core.Ctx) {
		for _, k := range []uint64{1, 2, 3} {
			client.LookupSpec(c, k)
		}
		if len(client.spec) != 2 {
			t.Errorf("cache holds %d keys, want 2", len(client.spec))
		}
		if _, ok := client.spec[1]; ok {
			t.Error("oldest key 1 was not evicted")
		}
		for _, k := range []uint64{2, 3} {
			if _, ok := client.spec[k]; !ok {
				t.Errorf("key %d missing from the cache", k)
			}
		}
		misses := client.SpecMisses
		if v, ok := client.LookupSpec(c, 1); !ok || v != 1 {
			t.Errorf("evicted LookupSpec(1) = %d,%v", v, ok)
		}
		if client.SpecMisses != misses+1 {
			t.Error("evicted key was served from the cache")
		}
	})
}

// A client whose index cache predates a root split still finds every
// key, repairing its cache through fence checks and path refreshes.
func TestStaleClientRecoversAfterRootSplit(t *testing.T) {
	cl := newCluster(t)
	tree := BulkLoad(cl.Targets(), seqKeys(LeafCap), 1.0)
	height := tree.Height()
	writer := NewClient(tree, cl.Eng, false)
	stale := NewClient(tree, cl.Eng, true)
	staleRoot := stale.root.addr
	keys := seqKeys(LeafCap)
	runClient(t, cl, func(c *core.Ctx) {
		// Ascending inserts split the rightmost leaf over and over,
		// filling the root until it splits too.
		for k := uint64(LeafCap + 1); tree.Height() == height && k < 1<<13; k++ {
			writer.Update(c, k, k)
			keys = append(keys, k)
		}
		for _, k := range keys {
			if v, ok := stale.LookupSpec(c, k); !ok || v != k {
				t.Errorf("stale client LookupSpec(%d) = %d,%v", k, v, ok)
				return
			}
		}
	})
	if tree.Height() <= height {
		t.Fatalf("height %d → %d: the root never split", height, tree.Height())
	}
	if root := rootNode(tree).addr; root == staleRoot || stale.root.addr != root {
		t.Errorf("stale client's root %v, tree root %v (was %v): never adopted", stale.root.addr, root, staleRoot)
	}
}

// TestSpecCacheStaysInStepThroughSplits pins the speculative cache's
// bound when entries move: with a 2-entry cap, each round caches two
// keys, inserts a key just below them (shifting their slots, or
// splitting their full leaf), looks them up again (the one still
// cached finds its entry moved, drops it and re-caches it through the
// fallback), then
// looks up three keys elsewhere. After every call at most 2 keys are
// cached, and the eviction ring holds each cached key exactly once and
// nothing else.
func TestSpecCacheStaysInStepThroughSplits(t *testing.T) {
	cl := newCluster(t)
	var even []uint64
	for k := uint64(2); k <= 2*LeafCap; k += 2 {
		even = append(even, k)
	}
	tree := BulkLoad(cl.Targets(), even, 1.0) // full: the first insert splits
	client := NewClient(tree, cl.Eng, true)
	const capacity = 2
	client.SetSpecCacheEntries(capacity)
	inStep := func(after string) bool { return specInStep(t, client, capacity, after) }
	drops := 0
	runClient(t, cl, func(c *core.Ctx) {
		lookup := func(k uint64) bool {
			_, cached := client.spec[k]
			misses := client.SpecMisses
			if v, ok := client.LookupSpec(c, k); !ok || v != k {
				t.Errorf("LookupSpec(%d) = %d,%v", k, v, ok)
				return false
			}
			if cached && client.SpecMisses > misses {
				drops++
			}
			return inStep(fmt.Sprintf("LookupSpec(%d)", k))
		}
		for a := uint64(4); a+2 <= 2*LeafCap-6; a += 4 {
			if !lookup(a) || !lookup(a+2) {
				return
			}
			client.Update(c, a-1, a-1)
			if !inStep(fmt.Sprintf("Update(%d)", a-1)) {
				return
			}
			// The insert cached a-1 over a, the older: a+2 is still cached.
			for _, k := range []uint64{a + 2, a, 2 * LeafCap, 2*LeafCap - 2, 2*LeafCap - 4} {
				if !lookup(k) {
					return
				}
			}
		}
	})
	if client.Splits == 0 || drops == 0 {
		t.Fatalf("%d splits, %d moved entries dropped: the drop path was not reached", client.Splits, drops)
	}
	t.Logf("%d splits, %d moved entries dropped", client.Splits, drops)
}

// specInStep reports whether client's speculative cache holds at most
// capacity keys and its eviction ring holds each cached key exactly
// once and nothing else, failing t if not.
func specInStep(t *testing.T, client *Client, capacity int, after string) bool {
	t.Helper()
	if len(client.spec) > capacity {
		t.Errorf("after %s: %d keys cached with cap %d", after, len(client.spec), capacity)
		return false
	}
	seen := map[uint64]int{}
	for _, k := range client.specRing {
		seen[k]++
	}
	for k, n := range seen {
		if _, ok := client.spec[k]; !ok || n != 1 {
			t.Errorf("after %s: ring %v holds key %d %d times (cached: %v)", after, client.specRing, k, n, ok)
			return false
		}
	}
	if len(seen) != len(client.spec) {
		t.Errorf("after %s: ring %v, %d keys cached", after, client.specRing, len(client.spec))
		return false
	}
	return true
}

// TestSpecCacheSharedByCoroutines pins the speculative cache when the
// coroutines of one blade share it: two readers look up the same hot
// keys in step while a third coroutine inserts keys below them, moving
// their entries (shifts and splits) and, with a 2-entry cap, evicting
// them. Both readers' in-flight READs can find the same entry moved,
// and a reader's key can be evicted while its READ is in flight, so a
// drop can find its key already gone. Nothing may panic, every lookup
// must return its value, and the ring and the map must stay in step.
func TestSpecCacheSharedByCoroutines(t *testing.T) {
	cl := newCluster(t)
	var even []uint64
	for k := uint64(2); k <= 2*LeafCap; k += 2 {
		even = append(even, k)
	}
	tree := BulkLoad(cl.Targets(), even, 1.0) // full: the first insert splits
	client := NewClient(tree, cl.Eng, true)
	const capacity, rounds = 2, LeafCap - 2
	client.SetSpecCacheEntries(capacity)
	hot := []uint64{2 * LeafCap, 2*LeafCap - 2}
	rt := core.MustNew(cl.Computes[0].NIC, cl.Targets(), 1, core.Smart())
	done := 0
	for r := 0; r < 2; r++ {
		rt.Thread(0).Spawn(fmt.Sprintf("reader%d", r), func(c *core.Ctx) {
			for i := 0; i < rounds; i++ {
				for _, k := range hot {
					if v, ok := client.LookupSpec(c, k); !ok || v != k {
						t.Errorf("reader %d: LookupSpec(%d) = %d,%v", r, k, v, ok)
						return
					}
					if !specInStep(t, client, capacity, fmt.Sprintf("reader %d's LookupSpec(%d)", r, k)) {
						return
					}
				}
				c.Proc().Sleep(10 * sim.Microsecond)
			}
			done++
		})
	}
	rt.Thread(0).Spawn("inserter", func(c *core.Ctx) {
		for i := 0; i < rounds; i++ {
			c.Proc().Sleep(7 * sim.Microsecond)
			k := uint64(2*LeafCap - 3 - 2*i) // below both hot keys
			client.Update(c, k, k)
			if !specInStep(t, client, capacity, fmt.Sprintf("Update(%d)", k)) {
				return
			}
		}
		done++
	})
	cl.Eng.Run(20 * sim.Second)
	rt.Stop()
	if done != 3 {
		t.Fatalf("%d of 3 coroutines finished", done)
	}
	if client.Splits == 0 || client.SpecMisses == 0 {
		t.Fatalf("%d splits, %d speculative misses: nothing moved under the readers", client.Splits, client.SpecMisses)
	}
	t.Logf("%d splits, %d hits, %d misses", client.Splits, client.SpecHits, client.SpecMisses)
}
