// Package blade models memory blades: the passive, byte-addressable
// memory pool side of the disaggregated architecture. A blade exposes
// its memory through one-sided operations only (READ, WRITE, CAS, FAA)
// — exactly the interface the RNIC executes on behalf of remote
// compute blades — plus a bump allocator that stands in for the
// registration-time carving of memory regions. Its memory is a table
// of fixed-size pages allocated on first write, so a blade costs the
// host only the pages written to it.
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

// pageShift sets the size of a blade page, the unit in which a blade
// commits host memory: 64 KiB (DESIGN.md §14, "Blade memory").
const (
	pageShift = 16
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Blade is one memory blade: a large region of simulated memory with
// near-zero compute. The first 8 bytes are reserved so that offset 0
// can serve as a null pointer.
//
// Memory is a table of fixed-size pages, each allocated zeroed on its
// first write; the last page stops at capacity. A page never written
// reads as zero and costs nothing, so a blade costs host memory in
// proportion to the pages it has stored into, not to its configured
// size, and growing it never copies what is already stored.
type Blade struct {
	ID   int
	Kind Kind
	// pages[i] holds bytes [i*pageSize, (i+1)*pageSize), or is nil if
	// none of them was ever written. The table itself ends after the
	// highest page written.
	pages    [][]byte
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

// Pages returns how many 64 KiB pages the blade has committed: the host
// memory its stores have cost, in pages.
func (b *Blade) Pages() int {
	n := 0
	for _, p := range b.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// Alloc carves size bytes (8-byte aligned) out of the blade and
// returns their global address. It panics when the blade is full;
// sizing is a configuration decision, not a runtime condition.
func (b *Blade) Alloc(size uint64) Addr {
	// The cursor stays 8-aligned, so size fits when it is at most the
	// free space rounded down to 8; testing that before rounding keeps
	// a size near 2^64 from wrapping to a small one.
	if size > (b.capacity-b.next)&^7 {
		panic(fmt.Sprintf("blade %d: out of memory (%d + %d > %d)", b.ID, b.next, size, b.capacity))
	}
	off := b.next
	b.next += (size + 7) &^ 7
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
	if p, i := b.page(off), off&pageMask; i+uint64(len(dst)) <= uint64(len(p)) {
		copy(dst, p[i:])
		return
	}
	b.readSlow(off, dst)
}

// Write copies src into the blade at off.
func (b *Blade) Write(off uint64, src []byte) {
	b.Writes++
	if p, i := b.page(off), off&pageMask; i+uint64(len(src)) <= uint64(len(p)) {
		copy(p[i:], src)
		return
	}
	b.writeSlow(off, src)
}

// Load8 returns the 8-byte little-endian word at off.
func (b *Blade) Load8(off uint64) uint64 {
	if p, i := b.page(off), off&pageMask; i+8 <= uint64(len(p)) {
		return binary.LittleEndian.Uint64(p[i : i+8])
	}
	var w [8]byte
	b.readSlow(off, w[:])
	return binary.LittleEndian.Uint64(w[:])
}

// Store8 writes the 8-byte little-endian word v at off.
func (b *Blade) Store8(off uint64, v uint64) {
	b.Writes++
	b.store8(off, v)
}

// CAS atomically compares the 8-byte word at off with expect and, on
// match, stores swap. It returns the previous value and whether the
// swap happened. RDMA CAS always returns the old value; callers detect
// failure by comparing it to expect.
func (b *Blade) CAS(off uint64, expect, swap uint64) (old uint64, swapped bool) {
	b.Atomics++
	old = b.Load8(off)
	if old == expect {
		b.store8(off, swap)
		return old, true
	}
	return old, false
}

// FAA atomically adds delta to the 8-byte word at off and returns the
// previous value.
func (b *Blade) FAA(off uint64, delta uint64) (old uint64) {
	b.Atomics++
	old = b.Load8(off)
	b.store8(off, old+delta)
	return old
}

// store8 is Store8 without the counter.
func (b *Blade) store8(off uint64, v uint64) {
	if p, i := b.page(off), off&pageMask; i+8 <= uint64(len(p)) {
		binary.LittleEndian.PutUint64(p[i:i+8], v)
		return
	}
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	b.writeSlow(off, w[:])
}

// page returns the page holding off, or nil if that page was never
// written or off lies past the page table.
func (b *Blade) page(off uint64) []byte {
	if i := off >> pageShift; i < uint64(len(b.pages)) {
		return b.pages[i]
	}
	return nil
}

// readSlow serves a read that crosses a page boundary, touches a page
// never written, or is out of range: written pages are copied, the
// rest reads as zero, and nothing is allocated.
func (b *Blade) readSlow(off uint64, dst []byte) {
	b.check(off, off+uint64(len(dst)))
	for len(dst) > 0 {
		i := off & pageMask
		n := min(uint64(len(dst)), pageSize-i)
		if p := b.page(off); p != nil {
			copy(dst[:n], p[i:])
		} else {
			clear(dst[:n])
		}
		dst, off = dst[n:], off+n
	}
}

// writeSlow serves a write that crosses a page boundary, lands on a
// page never written, or is out of range, allocating each page it
// touches for the first time.
func (b *Blade) writeSlow(off uint64, src []byte) {
	b.check(off, off+uint64(len(src)))
	for len(src) > 0 {
		n := copy(b.commit(off >> pageShift)[off&pageMask:], src)
		src, off = src[n:], off+uint64(n)
	}
}

// commit returns page i, allocating it (zeroed, and cut short at
// capacity if it is the last page) and extending the page table to
// reach it on first use.
func (b *Blade) commit(i uint64) []byte {
	if i >= uint64(len(b.pages)) {
		b.pages = append(b.pages, make([][]byte, i+1-uint64(len(b.pages)))...)
	}
	if b.pages[i] == nil {
		b.pages[i] = make([]byte, min(pageSize, b.capacity-i<<pageShift))
	}
	return b.pages[i]
}

// check panics unless [off, end) lies inside the blade's capacity. An
// end below off is a span whose length wrapped around.
func (b *Blade) check(off, end uint64) {
	if end < off || end > b.capacity {
		panic(fmt.Sprintf("blade %d: access [%d, %d) past capacity %d", b.ID, off, end, b.capacity))
	}
}
