package blade

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestAllocAlignmentAndReservation(t *testing.T) {
	b := New(1, DRAM, 1024)
	a := b.Alloc(3)
	if a.Offset != 8 {
		t.Fatalf("first alloc offset = %d, want 8 (null reserved)", a.Offset)
	}
	c := b.Alloc(8)
	if c.Offset != 16 {
		t.Fatalf("second alloc offset = %d, want 16 (aligned)", c.Offset)
	}
	if a.Blade != 1 || c.Blade != 1 {
		t.Fatal("alloc returned wrong blade id")
	}
}

// Alloc panics on a size past the free space, including one near 2^64
// that would round to 0 or carry the cursor past 2^64 and back below
// capacity, and a refused Alloc leaves the cursor where it was.
func TestAllocExhaustionPanics(t *testing.T) {
	for _, size := range []uint64{128, 64 - 16 + 1, ^uint64(0), ^uint64(0) - 6, ^uint64(0) - 15, 1 << 63} {
		b := New(1, DRAM, 64)
		b.Alloc(8)
		if !panics(func() { b.Alloc(size) }) {
			t.Fatalf("Alloc(%#x) on a 64-byte blade did not panic", size)
		}
		if a := b.Alloc(64 - 16); a.Offset != 16 {
			t.Fatalf("after the refused Alloc(%#x), the free space starts at %d, want 16", size, a.Offset)
		}
	}
}

func TestReadWriteRoundtrip(t *testing.T) {
	b := New(2, DRAM, 4096)
	a := b.Alloc(32)
	src := []byte("hello disaggregated memory!!")
	b.Write(a.Offset, src)
	got := b.Read(a.Offset, len(src))
	if !bytes.Equal(got, src) {
		t.Fatalf("roundtrip mismatch: %q vs %q", got, src)
	}
	dst := make([]byte, len(src))
	b.ReadInto(a.Offset, dst)
	if !bytes.Equal(dst, src) {
		t.Fatal("ReadInto mismatch")
	}
}

func TestLoadStore8(t *testing.T) {
	b := New(1, DRAM, 128)
	a := b.Alloc(8)
	b.Store8(a.Offset, 0xdeadbeefcafe)
	if v := b.Load8(a.Offset); v != 0xdeadbeefcafe {
		t.Fatalf("Load8 = %#x", v)
	}
}

func TestCASSemantics(t *testing.T) {
	b := New(1, DRAM, 128)
	a := b.Alloc(8)
	b.Store8(a.Offset, 10)
	old, ok := b.CAS(a.Offset, 10, 20)
	if !ok || old != 10 {
		t.Fatalf("successful CAS: old=%d ok=%v", old, ok)
	}
	old, ok = b.CAS(a.Offset, 10, 30)
	if ok || old != 20 {
		t.Fatalf("failed CAS: old=%d ok=%v, want old=20 ok=false", old, ok)
	}
	if v := b.Load8(a.Offset); v != 20 {
		t.Fatalf("value after failed CAS = %d, want 20", v)
	}
}

func TestFAA(t *testing.T) {
	b := New(1, DRAM, 128)
	a := b.Alloc(8)
	if old := b.FAA(a.Offset, 5); old != 0 {
		t.Fatalf("first FAA old = %d", old)
	}
	if old := b.FAA(a.Offset, 3); old != 5 {
		t.Fatalf("second FAA old = %d", old)
	}
	if v := b.Load8(a.Offset); v != 8 {
		t.Fatalf("final = %d", v)
	}
}

func TestCounters(t *testing.T) {
	b := New(1, NVM, 128)
	a := b.Alloc(16)
	b.Write(a.Offset, []byte{1})
	b.Read(a.Offset, 1)
	b.CAS(a.Offset, 0, 0)
	b.FAA(a.Offset, 0)
	if b.Reads != 1 || b.Writes != 1 || b.Atomics != 2 {
		t.Fatalf("counters = %d/%d/%d", b.Reads, b.Writes, b.Atomics)
	}
	if b.Kind.String() != "NVM" || DRAM.String() != "DRAM" {
		t.Fatal("Kind strings wrong")
	}
}

func TestAddrHelpers(t *testing.T) {
	var nilAddr Addr
	if !nilAddr.IsNil() {
		t.Fatal("zero Addr must be nil")
	}
	a := Addr{Blade: 2, Offset: 100}
	if a.IsNil() {
		t.Fatal("non-zero Addr reported nil")
	}
	if b := a.Add(28); b.Offset != 128 || b.Blade != 2 {
		t.Fatalf("Add = %v", b)
	}
	if a.String() != "b2+0x64" {
		t.Fatalf("String = %q", a.String())
	}
}

// Property: CAS(x, x->y) followed by Load yields y; a CAS with a stale
// expected value never changes memory.
func TestCASProperty(t *testing.T) {
	b := New(1, DRAM, 256)
	a := b.Alloc(8)
	f := func(initial, swap, stale uint64) bool {
		b.Store8(a.Offset, initial)
		if _, ok := b.CAS(a.Offset, initial, swap); !ok {
			return false
		}
		if b.Load8(a.Offset) != swap {
			return false
		}
		if stale != swap {
			if _, ok := b.CAS(a.Offset, stale, 12345); ok {
				return false
			}
			if b.Load8(a.Offset) != swap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A blade costs host memory for what is written to it, not for its
// capacity: building a 1 GiB blade and reading untouched offsets
// across it allocates almost nothing, page table included, and a
// failed CAS on an unwritten page does not allocate it.
func TestNewCommitsNoCapacity(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := New(1, DRAM, 1<<30)
	var dst [64]byte
	for off := uint64(0); off < b.Capacity(); off += 1 << 24 {
		b.ReadInto(off, dst[:])
		b.Read(off, 8)
		b.Load8(off)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("New + untouched reads allocated %d bytes, want < 1 MiB", grew)
	}
	if b.Capacity() != 1<<30 {
		t.Fatalf("Capacity = %d, want %d", b.Capacity(), 1<<30)
	}

	b.Store8(64, 7)
	pages := committed(b)
	if _, ok := b.CAS(1<<29, 1, 2); ok {
		t.Fatal("CAS on untouched memory matched a nonzero expect")
	}
	if !slices.Equal(committed(b), pages) {
		t.Fatalf("failed CAS allocated: pages %v, then %v", pages, committed(b))
	}
}

// Allocation follows the bytes touched: sequential writes over 32 MiB
// allocate those 32 MiB once, plus the page table and at most a page
// (a slice grown by doubling would allocate every size on the way and
// overshoot the last), and 8-byte stores into k distinct pages
// allocate exactly those k pages.
func TestWritesAllocateTouchedPages(t *testing.T) {
	const span = 32 << 20
	b := New(1, DRAM, 2*span)
	chunk := bytes.Repeat([]byte{0xa5}, 4000) // not a divisor of the page size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for off := uint64(0); off < span; off += uint64(len(chunk)) {
		b.Write(off, chunk[:min(uint64(len(chunk)), span-off)])
	}
	runtime.ReadMemStats(&after)
	// The table is grown by append, which allocates at most about
	// twice its final size on the way there; 64 KiB covers 512 entries.
	const table = 64 << 10
	if grew := after.TotalAlloc - before.TotalAlloc; grew > span+table+pageSize {
		t.Fatalf("writing %d bytes allocated %d, want at most %d", span, grew, span+table+pageSize)
	}
	if got := b.Load8(span - 8); got != 0xa5a5a5a5a5a5a5a5 {
		t.Fatalf("last word = %#x", got)
	}

	b = New(2, DRAM, 1<<30)
	touched := []uint64{0, 3, 4, 9, 100, 257, 511} // page indices, all below 512
	runtime.ReadMemStats(&before)
	for i, p := range touched {
		b.Store8(p<<pageShift+pageSize/2, uint64(i)+1)
	}
	runtime.ReadMemStats(&after)
	k := uint64(len(touched))
	if grew := after.TotalAlloc - before.TotalAlloc; grew < k*pageSize || grew > k*pageSize+table {
		t.Fatalf("stores into %d pages allocated %d bytes, want %d plus the page table", k, grew, k*pageSize)
	}
	n := 0
	for _, c := range committed(b) {
		if c {
			n++
		}
	}
	if n != len(touched) {
		t.Fatalf("stores into %d pages committed %d", len(touched), n)
	}
	for i, p := range touched {
		if got := b.Load8(p<<pageShift + pageSize/2); got != uint64(i)+1 {
			t.Fatalf("page %d word = %d, want %d", p, got, i+1)
		}
	}
}

// sink keeps the compiler from discarding the benchmarked loads.
var sink uint64

// BenchmarkBladeAccess times each access kind at random 8-aligned
// offsets over a 16 MiB region written beforehand, so every access
// finds its memory committed and the time is the lookup and the copy.
func BenchmarkBladeAccess(b *testing.B) {
	const region = 16 << 20
	m := New(1, DRAM, region)
	m.Write(0, make([]byte, region))
	rng := rand.New(rand.NewSource(1))
	const mask = 1<<12 - 1
	offs := make([]uint64, mask+1)
	for i := range offs {
		offs[i] = uint64(rng.Int63n(region-1024)) &^ 7
	}
	buf := make([]byte, 1024)
	b.Run("Load8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += m.Load8(offs[i&mask])
		}
	})
	b.Run("Store8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Store8(offs[i&mask], uint64(i))
		}
	})
	b.Run("CAS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			old, _ := m.CAS(offs[i&mask], uint64(i), uint64(i)+1)
			sink += old
		}
	})
	for _, n := range []int{16, 1024} {
		b.Run(fmt.Sprintf("ReadInto%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.ReadInto(offs[i&mask], buf[:n])
			}
		})
	}
	b.Run("Write32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Write(offs[i&mask], buf[:32])
		}
	})
}
