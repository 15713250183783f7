package blade

import (
	"bytes"
	"encoding/binary"
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
	size = (size + 7) &^ 7
	if f.next+size > uint64(len(f.mem)) {
		panic("out of memory")
	}
	off := f.next
	f.next += size
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

// FuzzBladeMatchesFlat runs a scripted op sequence against a
// grow-on-write blade and a full-capacity flat array and requires
// identical results, identical panics, and identical memory after
// every op. Each op is four script bytes: opcode, offset region, and
// two operands. The regions put the op's offset below the blade's
// written prefix, straddling its end, past it within capacity, and
// past capacity (including offsets whose span wraps around).
func FuzzBladeMatchesFlat(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{200, 1, 2, 40, 16, 5, 1, 9, 3, 6, 2, 7, 8, 7, 1, 0, 0})
	f.Add([]byte{64, 1, 0, 3, 200, 5, 3, 0, 8, 7, 1, 0, 0, 8, 2, 1, 255, 2, 1, 5, 0})
	f.Add([]byte{255, 5, 2, 250, 7, 6, 1, 4, 4, 2, 3, 1, 3, 3, 3, 2, 2, 0, 3, 255, 255, 8, 2, 9, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		capacity := max(uint64(script[0])*8, 64)
		b := New(1, DRAM, uint64(script[0])*8)
		ref := &flat{mem: make([]byte, capacity), next: 8}
		if b.Capacity() != capacity {
			t.Fatalf("Capacity = %d, want %d", b.Capacity(), capacity)
		}
		script = script[1:]
		for i := 0; len(script) >= 4; i++ {
			op, region, x, y := script[0], script[1], script[2], script[3]
			script = script[4:]

			var off uint64
			prefix := uint64(len(b.mem))
			switch region % 4 {
			case 0: // inside the written prefix
				off = uint64(x) % (prefix + 1)
			case 1: // straddling its end
				off = prefix - min(prefix, uint64(x%16))
			case 2: // past it, within capacity
				off = prefix + uint64(x)%(capacity-prefix+1)
			case 3: // past capacity, or wrapping around
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
			reads := true // the op may not grow mem
			switch op % 9 {
			case 0:
				size := uint64(y) * uint64(x%8)
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

			if reads && uint64(len(b.mem)) != prefix {
				t.Fatalf("op %d (%d at %d, n=%d): a read grew mem from %d to %d", i, op%9, off, n, prefix, len(b.mem))
			}
			if uint64(len(b.mem)) > capacity {
				t.Fatalf("op %d: len(mem) = %d past capacity %d", i, len(b.mem), capacity)
			}
			if !bytes.Equal(b.mem, ref.mem[:len(b.mem)]) {
				t.Fatalf("op %d: written prefix differs from flat", i)
			}
			if slices.ContainsFunc(ref.mem[len(b.mem):], func(c byte) bool { return c != 0 }) {
				t.Fatalf("op %d: flat has nonzero bytes past the blade's prefix", i)
			}
			if b.next != ref.next || b.Reads != ref.reads || b.Writes != ref.writes || b.Atomics != ref.atomics {
				t.Fatalf("op %d: cursor/counters %d %d/%d/%d, flat %d %d/%d/%d", i,
					b.next, b.Reads, b.Writes, b.Atomics, ref.next, ref.reads, ref.writes, ref.atomics)
			}
		}
	})
}

func equal(a, b any) bool {
	if x, ok := a.([]byte); ok {
		y, ok := b.([]byte)
		return ok && bytes.Equal(x, y)
	}
	return a == b
}
