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
type Blade struct {
	ID   int
	Kind Kind
	mem  []byte
	next uint64 // bump-allocation cursor

	// Counters for diagnostics and tests.
	Reads, Writes, Atomics uint64
}

// New returns a blade with the given identity, kind, and capacity in
// bytes.
func New(id int, kind Kind, capacity uint64) *Blade {
	if capacity < 64 {
		capacity = 64
	}
	return &Blade{ID: id, Kind: kind, mem: make([]byte, capacity), next: 8}
}

// Capacity returns the blade's total memory in bytes.
func (b *Blade) Capacity() uint64 { return uint64(len(b.mem)) }

// Alloc carves size bytes (8-byte aligned) out of the blade and
// returns their global address. It panics when the blade is full;
// sizing is a configuration decision, not a runtime condition.
func (b *Blade) Alloc(size uint64) Addr {
	size = (size + 7) &^ 7
	if b.next+size > uint64(len(b.mem)) {
		panic(fmt.Sprintf("blade %d: out of memory (%d + %d > %d)", b.ID, b.next, size, len(b.mem)))
	}
	off := b.next
	b.next += size
	return Addr{Blade: b.ID, Offset: off}
}

// Read copies n bytes at off into a freshly allocated slice.
func (b *Blade) Read(off uint64, n int) []byte {
	b.Reads++
	out := make([]byte, n)
	copy(out, b.mem[off:off+uint64(n)])
	return out
}

// ReadInto copies len(dst) bytes at off into dst.
func (b *Blade) ReadInto(off uint64, dst []byte) {
	b.Reads++
	copy(dst, b.mem[off:off+uint64(len(dst))])
}

// Write copies src into the blade at off.
func (b *Blade) Write(off uint64, src []byte) {
	b.Writes++
	copy(b.mem[off:off+uint64(len(src))], src)
}

// Load8 returns the 8-byte little-endian word at off.
func (b *Blade) Load8(off uint64) uint64 {
	return binary.LittleEndian.Uint64(b.mem[off : off+8])
}

// Store8 writes the 8-byte little-endian word v at off.
func (b *Blade) Store8(off uint64, v uint64) {
	b.Writes++
	binary.LittleEndian.PutUint64(b.mem[off:off+8], v)
}

// CAS atomically compares the 8-byte word at off with expect and, on
// match, stores swap. It returns the previous value and whether the
// swap happened. RDMA CAS always returns the old value; callers detect
// failure by comparing it to expect.
func (b *Blade) CAS(off uint64, expect, swap uint64) (old uint64, swapped bool) {
	b.Atomics++
	old = binary.LittleEndian.Uint64(b.mem[off : off+8])
	if old == expect {
		binary.LittleEndian.PutUint64(b.mem[off:off+8], swap)
		return old, true
	}
	return old, false
}

// FAA atomically adds delta to the 8-byte word at off and returns the
// previous value.
func (b *Blade) FAA(off uint64, delta uint64) (old uint64) {
	b.Atomics++
	old = binary.LittleEndian.Uint64(b.mem[off : off+8])
	binary.LittleEndian.PutUint64(b.mem[off:off+8], old+delta)
	return old
}
