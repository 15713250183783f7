package blade

import (
	"bytes"
	"runtime"
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

func TestAllocExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhaustion")
		}
	}()
	b := New(1, DRAM, 64)
	b.Alloc(128)
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
// across it allocates almost nothing, and a failed CAS past the
// written prefix does not grow it.
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
	n := len(b.mem)
	if _, ok := b.CAS(1<<29, 1, 2); ok {
		t.Fatal("CAS on untouched memory matched a nonzero expect")
	}
	if len(b.mem) != n {
		t.Fatalf("failed CAS grew mem from %d to %d bytes", n, len(b.mem))
	}
}
