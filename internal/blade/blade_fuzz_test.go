package blade

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"testing"
)

// flat is the reference blade: a full-capacity byte array accessed by
// plain slicing, so its panics are Go's slice-bounds panics.
type flat struct {
	mem                    []byte
	next                   uint64
	reads, writes, atomics uint64
}

func (f *flat) alloc(size uint64) uint64 {
	size, c1 := bits.Add64(size, 7, 0)
	end, c2 := bits.Add64(f.next, size&^7, 0)
	if c1|c2 != 0 || end > uint64(len(f.mem)) {
		panic("out of memory")
	}
	off := f.next
	f.next = end
	return off
}

func (f *flat) read(off uint64, n int) []byte {
	f.reads++
	out := make([]byte, n)
	copy(out, f.mem[off:off+uint64(n)])
	return out
}

func (f *flat) write(off uint64, src []byte) {
	f.writes++
	copy(f.mem[off:off+uint64(len(src))], src)
}

func (f *flat) load8(off uint64) uint64 {
	return binary.LittleEndian.Uint64(f.mem[off : off+8])
}

func (f *flat) store8(off, v uint64) {
	f.writes++
	binary.LittleEndian.PutUint64(f.mem[off:off+8], v)
}

func (f *flat) cas(off, expect, swap uint64) (uint64, bool) {
	f.atomics++
	old := binary.LittleEndian.Uint64(f.mem[off : off+8])
	if old == expect {
		binary.LittleEndian.PutUint64(f.mem[off:off+8], swap)
		return old, true
	}
	return old, false
}

func (f *flat) faa(off, delta uint64) uint64 {
	f.atomics++
	old := binary.LittleEndian.Uint64(f.mem[off : off+8])
	binary.LittleEndian.PutUint64(f.mem[off:off+8], old+delta)
	return old
}

// panics runs op and reports whether it panicked.
func panics(op func()) (p bool) {
	defer func() { p = recover() != nil }()
	op()
	return false
}

// FuzzBladeMatchesFlat runs a scripted op sequence against a paged
// blade and a full-capacity flat array and requires identical results,
// identical panics, and identical memory after every op. The first
// script byte sets a capacity of three whole pages plus a partial
// fourth; then each op is four script bytes: opcode, offset region,
// and two operands. The regions put the op's offset inside a written
// page, straddling a page boundary into a written or an unwritten
// page, inside an unwritten page, and past capacity (including offsets
// whose span wraps around). No read and no failed CAS may allocate a
// page.
func FuzzBladeMatchesFlat(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{200, 1, 2, 40, 16, 5, 1, 9, 3, 6, 2, 7, 8, 7, 1, 0, 0})
	f.Add([]byte{64, 1, 0, 3, 200, 5, 3, 0, 8, 7, 1, 0, 0, 8, 2, 1, 255, 2, 1, 5, 0})
	f.Add([]byte{255, 5, 2, 250, 7, 6, 1, 4, 4, 2, 3, 1, 3, 3, 3, 2, 2, 0, 3, 255, 255, 8, 2, 9, 1})
	f.Add([]byte{9, 5, 3, 7, 23, 1, 1, 9, 22, 3, 2, 200, 21, 8, 4, 3, 255, 0, 0, 15, 255, 0, 7, 4, 6})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		capacity := 3*pageSize + 1 + uint64(script[0])*9
		b := New(1, DRAM, capacity)
		ref := &flat{mem: make([]byte, capacity), next: 8}
		if b.Capacity() != capacity {
			t.Fatalf("Capacity = %d, want %d", b.Capacity(), capacity)
		}
		const lastPage = 3
		zero := make([]byte, pageSize)
		script = script[1:]
		for i := 0; len(script) >= 4; i++ {
			op, region, x, y := script[0], script[1], script[2], script[3]
			script = script[4:]

			before := committed(b)
			// pick returns the (y mod k)-th of the k pages from first
			// on whose written state is want, or first when none is.
			pick := func(first uint64, want bool) uint64 {
				var ps []uint64
				for p := first; p <= lastPage; p++ {
					if (p < uint64(len(before)) && before[p]) == want {
						ps = append(ps, p)
					}
				}
				if len(ps) == 0 {
					return first
				}
				return ps[uint64(y)%uint64(len(ps))]
			}
			var off uint64
			within := (uint64(x)*257 + uint64(y)%8) & pageMask // anywhere in a page
			switch region % 5 {
			case 0: // inside a written page
				off = pick(0, true)<<pageShift + within
			case 1: // straddling a boundary into a written page
				off = pick(1, true)<<pageShift - uint64(x%24)
			case 2: // straddling a boundary into an unwritten page
				off = pick(1, false)<<pageShift - uint64(x%24)
			case 3: // inside an unwritten page
				off = pick(0, false)<<pageShift + within
			case 4: // past capacity, or wrapping around
				if y&1 == 0 {
					off = capacity - 8 + uint64(x%16)
				} else {
					off = ^uint64(0) - uint64(x)
				}
			}
			n := int(y % 24)
			v := (uint64(x)<<8 | uint64(y) | uint64(i)<<16) * 0x9e3779b97f4a7c15

			var got, want any
			var gotP, wantP bool
			reads := true // the op may not allocate a page
			switch op % 9 {
			case 0:
				size := uint64(y) * uint64(x%8)
				if x%8 == 7 { // a size near 2^64 rounds to 0 or wraps the cursor
					size = ^uint64(0) - uint64(y)
				}
				gotP = panics(func() { got = b.Alloc(size).Offset })
				wantP = panics(func() { want = ref.alloc(size) })
			case 1:
				src := bytes.Repeat([]byte{x ^ y | 1}, n)
				reads = false
				gotP = panics(func() { b.Write(off, src) })
				wantP = panics(func() { ref.write(off, src) })
			case 2:
				gotP = panics(func() { got = b.Read(off, n) })
				wantP = panics(func() { want = ref.read(off, n) })
			case 3:
				dst := bytes.Repeat([]byte{0xee}, n) // stale bytes must be overwritten
				gotP = panics(func() { b.ReadInto(off, dst); got = dst })
				wantP = panics(func() { want = ref.read(off, n) })
			case 4:
				gotP = panics(func() { got = b.Load8(off) })
				wantP = panics(func() { want = ref.load8(off) })
			case 5:
				reads = false
				gotP = panics(func() { b.Store8(off, v) })
				wantP = panics(func() { ref.store8(off, v) })
			case 6, 7: // CAS that hits, CAS that misses
				var expect uint64
				panics(func() { expect = ref.load8(off) })
				if op%9 == 7 {
					expect++
				}
				type result struct {
					old     uint64
					swapped bool
				}
				gotP = panics(func() { o, s := b.CAS(off, expect, v); got = result{o, s}; reads = !s })
				wantP = panics(func() { o, s := ref.cas(off, expect, v); want = result{o, s} })
			case 8:
				reads = false
				gotP = panics(func() { got = b.FAA(off, v) })
				wantP = panics(func() { want = ref.faa(off, v) })
			}
			if gotP != wantP {
				t.Fatalf("op %d (%d at %d, n=%d): blade panicked=%v, flat panicked=%v", i, op%9, off, n, gotP, wantP)
			}
			if !gotP && !equal(got, want) {
				t.Fatalf("op %d (%d at %d, n=%d): blade %v, flat %v", i, op%9, off, n, got, want)
			}

			after := committed(b)
			if reads && !slices.Equal(after, before) {
				t.Fatalf("op %d (%d at %d, n=%d): a read or failed CAS allocated: pages %v, then %v", i, op%9, off, n, before, after)
			}
			if uint64(len(after)) > lastPage+1 {
				t.Fatalf("op %d: page table has %d entries past capacity %d", i, len(after), capacity)
			}
			for p := uint64(0); p <= lastPage; p++ {
				lo := p << pageShift
				hi := min(lo+pageSize, capacity)
				written := p < uint64(len(after)) && after[p]
				page := zero[:hi-lo] // a page never written reads as zero
				if written {
					page = b.pages[p]
				}
				if !bytes.Equal(page, ref.mem[lo:hi]) {
					t.Fatalf("op %d: page %d (written %v) differs from flat", i, p, written)
				}
			}
			if b.next != ref.next || b.Reads != ref.reads || b.Writes != ref.writes || b.Atomics != ref.atomics {
				t.Fatalf("op %d: cursor/counters %d %d/%d/%d, flat %d %d/%d/%d", i,
					b.next, b.Reads, b.Writes, b.Atomics, ref.next, ref.reads, ref.writes, ref.atomics)
			}
		}
	})
}

// committed reports, for each entry of b's page table, whether that
// page is allocated.
func committed(b *Blade) []bool {
	c := make([]bool, len(b.pages))
	for i, p := range b.pages {
		c[i] = p != nil
	}
	return c
}

func equal(a, b any) bool {
	if x, ok := a.([]byte); ok {
		y, ok := b.([]byte)
		return ok && bytes.Equal(x, y)
	}
	return a == b
}
