// Package race implements the RACE extendible hash table for
// disaggregated memory (Zuo et al., USENIX ATC'21 / TOS'22) on
// one-sided verbs, plus SMART-HT: the same data structure run through
// the SMART framework. As in the paper — where the RACE source is not
// public and the authors re-implemented it — this is a from-scratch
// implementation of the published algorithm.
//
// Memory layout (all little-endian 8-byte words):
//
//	directory  = [ global-depth | lock | entry[2^MaxDepth] ]
//	entry      = depth:8 | blade:8 | segOffset:48   (atomically CAS-able)
//	segment    = group[Groups], each group 192 B:
//	             [ bucket0 | overflow | bucket1 ]   (shared overflow à la RACE)
//	bucket     = [ header | slot[7] ]               (64 B)
//	header     = localDepth:8 | suffix:32
//	slot       = fp:8 | kvOffset:48                 (0 = empty)
//	kv block   = [ key | value ]                    (16 B, on the segment's blade)
//
// A key hashes to two bucket pairs (bucket0+overflow of one group,
// overflow+bucket1 of another); each pair is fetched with a single
// 128-byte READ, so a lookup is 2 bucket READs + 1 key/value READ —
// the three READs per lookup the SMART paper counts. An update writes
// the new KV block, locates the slot, and CASes it; every failed CAS
// costs a bucket re-read, a KV verification read, and another CAS
// (the "three more RDMA requests" of §3.3).
package race

import (
	"encoding/binary"

	"repro/internal/blade"
)

const (
	// SlotsPerBucket is the number of 8-byte slots after the header.
	SlotsPerBucket = 7
	// BucketBytes is the size of one bucket (header + slots).
	BucketBytes = 8 * (1 + SlotsPerBucket)
	// GroupBytes is one bucket group: main0 | overflow | main1.
	GroupBytes = 3 * BucketBytes
	// PairBytes is what one combined-bucket READ fetches.
	PairBytes = 2 * BucketBytes
	// KVBytes is the size of a key/value block (8-byte key, 8-byte
	// value, as in the paper's workloads).
	KVBytes = 16
)

// hash64 is splitmix64, the mixing function used for all three hash
// streams (segment index, bucket positions, fingerprint).
func hash64(x, seed uint64) uint64 {
	x += seed + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const (
	seedSegment = 0x5eedA
	seedGroup1  = 0x5eedB
	seedGroup2  = 0x5eedC
	seedFP      = 0x5eedD
)

// dirIndexHash gives the bits used to select the directory entry.
func dirIndexHash(key uint64) uint64 { return hash64(key, seedSegment) }

// fingerprint returns the slot fingerprint for key, never zero.
func fingerprint(key uint64) uint8 {
	fp := uint8(hash64(key, seedFP))
	if fp == 0 {
		fp = 1
	}
	return fp
}

// slot encodes fp | kvOffset.
type slot uint64

func makeSlot(fp uint8, kvOff uint64) slot {
	return slot(uint64(fp)<<56 | (kvOff & ((1 << 48) - 1)))
}

func (s slot) empty() bool   { return s == 0 }
func (s slot) fp() uint8     { return uint8(s >> 56) }
func (s slot) kvOff() uint64 { return uint64(s) & ((1 << 48) - 1) }
func (s slot) word() uint64  { return uint64(s) }

// header encodes localDepth | suffix for stale-directory detection.
type header uint64

func makeHeader(localDepth uint8, suffix uint32) header {
	return header(uint64(localDepth)<<56 | uint64(suffix))
}

func (h header) localDepth() uint8 { return uint8(h >> 56) }
func (h header) suffix() uint32    { return uint32(h) }
func (h header) word() uint64      { return uint64(h) }

// dirEntry encodes depth | blade | segment offset in one CAS-able word.
type dirEntry uint64

func makeDirEntry(localDepth uint8, bladeID int, segOff uint64) dirEntry {
	return dirEntry(uint64(localDepth)<<56 | uint64(uint8(bladeID))<<48 | (segOff & ((1 << 48) - 1)))
}

func (d dirEntry) localDepth() uint8 { return uint8(d >> 56) }
func (d dirEntry) bladeID() int      { return int(uint8(d >> 48)) }
func (d dirEntry) segOff() uint64    { return uint64(d) & ((1 << 48) - 1) }
func (d dirEntry) word() uint64      { return uint64(d) }
func (d dirEntry) segAddr() blade.Addr {
	return blade.Addr{Blade: d.bladeID(), Offset: d.segOff()}
}

// pairRef identifies one combined-bucket READ target: the address of a
// 128-byte main+overflow pair and which half holds the main bucket.
type pairRef struct {
	addr      blade.Addr // start of the 128-byte pair
	mainFirst bool       // true: [main|overflow]; false: [overflow|main]
}

// pairFor computes the two candidate pairs for key within a segment of
// the given group count, based at segAddr.
func pairsFor(key uint64, segAddr blade.Addr, groups int) [2]pairRef {
	g1 := hash64(key, seedGroup1) % uint64(groups)
	g2 := hash64(key, seedGroup2) % uint64(groups)
	return [2]pairRef{
		{addr: segAddr.Add(g1 * GroupBytes), mainFirst: true},
		{addr: segAddr.Add(g2*GroupBytes + BucketBytes), mainFirst: false},
	}
}

// pairView decodes a fetched 128-byte pair.
type pairView struct {
	raw []byte
	ref pairRef
}

// headerOfMain returns the main bucket's header.
func (v pairView) headerOfMain() header {
	off := 0
	if !v.ref.mainFirst {
		off = BucketBytes
	}
	return header(binary.LittleEndian.Uint64(v.raw[off : off+8]))
}

// slotAt returns slot i of the pair (0..13: main bucket then overflow,
// in scan order) and the remote address of that slot word.
func (v pairView) slotAt(i int) (slot, blade.Addr) {
	// Scan order: main bucket slots first, then the shared overflow.
	var byteOff int
	mainBase, ovfBase := 0, BucketBytes
	if !v.ref.mainFirst {
		mainBase, ovfBase = BucketBytes, 0
	}
	if i < SlotsPerBucket {
		byteOff = mainBase + 8*(1+i)
	} else {
		byteOff = ovfBase + 8*(1+i-SlotsPerBucket)
	}
	s := slot(binary.LittleEndian.Uint64(v.raw[byteOff : byteOff+8]))
	return s, v.ref.addr.Add(uint64(byteOff))
}

// totalSlots is the number of slots reachable through one pair.
const totalSlots = 2 * SlotsPerBucket

// encodeKV serializes a key/value block into b (KVBytes long) and
// returns it.
func encodeKV(b []byte, key, val uint64) []byte {
	binary.LittleEndian.PutUint64(b[0:8], key)
	binary.LittleEndian.PutUint64(b[8:16], val)
	return b
}

// decodeKV parses a key/value block.
func decodeKV(b []byte) (key, val uint64) {
	return binary.LittleEndian.Uint64(b[0:8]), binary.LittleEndian.Uint64(b[8:16])
}
