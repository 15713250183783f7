// Package blade models memory blades: the passive, byte-addressable
// memory pool side of the disaggregated architecture. A blade exposes
// its memory through one-sided operations only (READ, WRITE, CAS, FAA)
// — exactly the interface the RNIC executes on behalf of remote
// compute blades — plus a bump allocator that stands in for the
// registration-time carving of memory regions.
//
// Because the simulation engine is single-threaded, operations applied
// at their virtual execution time are automatically linearized, which
// matches the atomicity the real RNIC guarantees for 8-byte verbs.
package blade

import (
	"encoding/binary"
	"fmt"
)

// Kind distinguishes the storage technology backing a blade. FORD
// stores database records and undo logs on persistent memory, which
// has higher write latency than DRAM; the RNIC model charges the
// difference.
type Kind int

const (
	DRAM Kind = iota
	NVM
)

func (k Kind) String() string {
	if k == NVM {
		return "NVM"
	}
	return "DRAM"
}

// Addr is a global address: a blade identifier plus a byte offset into
// that blade's memory region. It is what one-sided work requests carry
// as their remote address.
type Addr struct {
	Blade  int
	Offset uint64
}

// IsNil reports whether the address is the zero address, used as a
// null pointer throughout the data structures.
func (a Addr) IsNil() bool { return a.Blade == 0 && a.Offset == 0 }

func (a Addr) String() string { return fmt.Sprintf("b%d+0x%x", a.Blade, a.Offset) }

// Add returns the address displaced by d bytes.
func (a Addr) Add(d uint64) Addr { return Addr{Blade: a.Blade, Offset: a.Offset + d} }

// Blade is one memory blade: a large region of simulated memory with
// near-zero compute. The first 8 bytes are reserved so that offset 0
// can serve as a null pointer.
//
// Memory is grow-on-write: mem holds the prefix that writes have
// reached and grows by doubling, never past capacity. Bytes past
// len(mem) have never been written, so they read as zero, just as an
// untouched byte of a full-capacity array would. A blade therefore
// costs host memory in proportion to what it stores, not to its
// configured size.
type Blade struct {
	ID       int
	Kind     Kind
	mem      []byte
	capacity uint64
	next     uint64 // bump-allocation cursor

	// Counters for diagnostics and tests.
	Reads, Writes, Atomics uint64
}

// New returns a blade with the given identity, kind, and capacity in
// bytes. It allocates no memory proportional to capacity.
func New(id int, kind Kind, capacity uint64) *Blade {
	if capacity < 64 {
		capacity = 64
	}
	return &Blade{ID: id, Kind: kind, capacity: capacity, next: 8}
}

// Capacity returns the blade's total memory in bytes.
func (b *Blade) Capacity() uint64 { return b.capacity }

// Alloc carves size bytes (8-byte aligned) out of the blade and
// returns their global address. It panics when the blade is full;
// sizing is a configuration decision, not a runtime condition.
func (b *Blade) Alloc(size uint64) Addr {
	size = (size + 7) &^ 7
	if b.next+size > b.capacity {
		panic(fmt.Sprintf("blade %d: out of memory (%d + %d > %d)", b.ID, b.next, size, b.capacity))
	}
	off := b.next
	b.next += size
	return Addr{Blade: b.ID, Offset: off}
}

// Read copies n bytes at off into a freshly allocated slice.
func (b *Blade) Read(off uint64, n int) []byte {
	out := make([]byte, n)
	b.ReadInto(off, out)
	return out
}

// ReadInto copies len(dst) bytes at off into dst.
func (b *Blade) ReadInto(off uint64, dst []byte) {
	b.Reads++
	if end := off + uint64(len(dst)); end <= uint64(len(b.mem)) {
		copy(dst, b.mem[off:end])
	} else {
		b.readPastEnd(off, dst)
	}
}

// Write copies src into the blade at off.
func (b *Blade) Write(off uint64, src []byte) {
	b.Writes++
	copy(b.span(off, uint64(len(src))), src)
}

// Load8 returns the 8-byte little-endian word at off.
func (b *Blade) Load8(off uint64) uint64 {
	if off+8 <= uint64(len(b.mem)) {
		return binary.LittleEndian.Uint64(b.mem[off : off+8])
	}
	var w [8]byte
	b.readPastEnd(off, w[:])
	return binary.LittleEndian.Uint64(w[:])
}

// Store8 writes the 8-byte little-endian word v at off.
func (b *Blade) Store8(off uint64, v uint64) {
	b.Writes++
	binary.LittleEndian.PutUint64(b.span(off, 8), v)
}

// CAS atomically compares the 8-byte word at off with expect and, on
// match, stores swap. It returns the previous value and whether the
// swap happened. RDMA CAS always returns the old value; callers detect
// failure by comparing it to expect.
func (b *Blade) CAS(off uint64, expect, swap uint64) (old uint64, swapped bool) {
	b.Atomics++
	old = b.Load8(off)
	if old == expect {
		binary.LittleEndian.PutUint64(b.span(off, 8), swap)
		return old, true
	}
	return old, false
}

// FAA atomically adds delta to the 8-byte word at off and returns the
// previous value.
func (b *Blade) FAA(off uint64, delta uint64) (old uint64) {
	b.Atomics++
	old = b.Load8(off)
	binary.LittleEndian.PutUint64(b.span(off, 8), old+delta)
	return old
}

// readPastEnd serves a read that ends past the written prefix: the
// prefix part is copied and the rest reads as zero.
func (b *Blade) readPastEnd(off uint64, dst []byte) {
	b.check(off, off+uint64(len(dst)))
	n := 0
	if off < uint64(len(b.mem)) {
		n = copy(dst, b.mem[off:])
	}
	clear(dst[n:])
}

// span returns mem[off:off+n] for writing, growing mem when the span
// ends past it.
func (b *Blade) span(off, n uint64) []byte {
	if end := off + n; end <= uint64(len(b.mem)) {
		return b.mem[off:end]
	}
	return b.grow(off, off+n)
}

// grow doubles mem (at least to end, at most to capacity) and returns
// mem[off:end].
func (b *Blade) grow(off, end uint64) []byte {
	b.check(off, end)
	mem := make([]byte, min(max(2*uint64(len(b.mem)), end), b.capacity))
	copy(mem, b.mem)
	b.mem = mem
	return mem[off:end]
}

// check panics unless [off, end) lies inside the blade's capacity. An
// end below off is a span whose length wrapped around.
func (b *Blade) check(off, end uint64) {
	if end < off || end > b.capacity {
		panic(fmt.Sprintf("blade %d: access [%d, %d) past capacity %d", b.ID, off, end, b.capacity))
	}
}
