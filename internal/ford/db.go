// Package ford implements a FORD-style one-sided RDMA transaction
// runtime for disaggregated persistent memory (Zhang et al., FAST'22),
// plus the SmallBank and TATP workloads the SMART paper evaluates.
// SMART-DTX is the same runtime executed through the SMART framework
// (per-thread doorbells, work request throttling, conflict avoidance);
// FORD+ is the per-thread-QP baseline.
//
// Records live on NVM memory blades, partitioned by key:
//
//	record = [ lock | version | payload ]
//
// The transaction protocol follows FORD's one-sided design:
//
//	execution  — READ read-set records; lock write-set records with
//	             CAS and READ them (lock-during-execution).
//	validation — re-READ read-set versions; any change aborts.
//	commit     — WRITE an undo-log entry to the coordinator thread's
//	             per-blade log region (persistent), then WRITE each
//	             updated record in place with the version bumped and
//	             the lock cleared in the same 8-byte-aligned WRITE.
//	abort      — WRITE zeros to the acquired lock words.
package ford

import (
	"encoding/binary"
	"fmt"

	"repro/internal/blade"
	"repro/internal/core"
	"repro/internal/verbs"
)

// recHdr is the record header: lock word + version word.
const recHdr = 16

// TableSpec declares one table.
type TableSpec struct {
	Name    string
	Records uint64
	Payload int // payload bytes (8-byte aligned)
}

type tableMeta struct {
	spec  TableSpec
	rec   int          // total record size
	bases []blade.Addr // per-blade base; record k on blade k%B
	// backups mirrors bases on the next blade: record k's backup
	// replica lives on blade (k+1)%B (nil with a single blade).
	backups []blade.Addr
}

// DB is a set of tables striped across the memory blades.
type DB struct {
	targets []verbs.Target
	tables  map[string]*tableMeta
	logs    map[logKey]*logRegion
	freeTxs []*Tx // finished transactions, for Begin to reuse
}

type logKey struct {
	thread int
	blade  int
}

// logRegion is a per-thread, per-blade persistent ring for undo logs.
// An entry is live from its undo WRITE in Commit until its transaction
// finishes; next never hands out bytes that overlap a live entry, so
// the ring must hold everything a thread's coroutines can have in
// flight at once, and no more: nothing reads an entry back.
type logRegion struct {
	key  logKey
	base blade.Addr
	size uint64
	off  uint64
	live []logEntry // entries of unfinished transactions
	laps int        // times the ring wrapped to its start
}

// logEntry is the byte range [off, off+n) of one undo entry in a ring.
type logEntry struct{ off, n uint64 }

// logRegionBytes sizes each ring. At 8 to 96 threads under FORD+ and
// SMART-DTX, at most 1 872 B of a ring (TATP; SmallBank 432 B) lay
// between a live entry's start and a new entry's end, and no entry was
// over 352 B: 16 KiB is more than 8x that. Only the pages a ring writes
// cost host memory (DESIGN.md §14, "Blade memory").
const logRegionBytes = 16 << 10

// next reserves n bytes for an undo entry and returns their offset in
// the ring, wrapping to its start when they do not fit before its end.
// It panics, naming the thread and blade, when the entry is larger than
// the ring or would overlap a live one: an undo log the ring overwrote
// before its transaction finished could not undo it.
func (l *logRegion) next(n uint64) uint64 {
	if n > l.size {
		panic(fmt.Sprintf("ford: thread %d's undo entry of %d B for blade %d is larger than its %d B ring",
			l.key.thread, n, l.key.blade, l.size))
	}
	if l.off+n > l.size {
		l.off = 0
		l.laps++
	}
	for _, e := range l.live {
		if l.off < e.off+e.n && e.off < l.off+n {
			panic(fmt.Sprintf("ford: thread %d's undo ring on blade %d (%d B) wrapped onto a live entry: "+
				"[%d, %d) overlaps [%d, %d) of an unfinished transaction",
				l.key.thread, l.key.blade, l.size, l.off, l.off+n, e.off, e.off+e.n))
		}
	}
	off := l.off
	l.live = append(l.live, logEntry{off: off, n: n})
	l.off += n
	return off
}

// release ends the life of the live entry at off.
func (l *logRegion) release(off uint64) {
	for i, e := range l.live {
		if e.off == off {
			last := len(l.live) - 1
			l.live[i] = l.live[last]
			l.live = l.live[:last]
			return
		}
	}
	panic(fmt.Sprintf("ford: thread %d's undo ring on blade %d has no live entry at %d", l.key.thread, l.key.blade, off))
}

// NewDB creates the tables in blade memory. Records are zeroed with
// version zero and unlocked.
func NewDB(targets []verbs.Target, specs []TableSpec) *DB {
	if len(targets) == 0 {
		panic("ford: no memory blades")
	}
	db := &DB{targets: targets, tables: map[string]*tableMeta{}, logs: map[logKey]*logRegion{}}
	for _, s := range specs {
		if s.Payload%8 != 0 || s.Payload == 0 {
			panic(fmt.Sprintf("ford: payload of %q must be a positive multiple of 8", s.Name))
		}
		m := &tableMeta{spec: s, rec: recHdr + s.Payload}
		perBlade := (s.Records + uint64(len(targets)) - 1) / uint64(len(targets))
		for _, tgt := range targets {
			m.bases = append(m.bases, tgt.Mem.Alloc(perBlade*uint64(m.rec)))
		}
		if len(targets) > 1 {
			// FORD keeps a backup replica of every record on another
			// blade; commits install both copies.
			for i := range targets {
				next := targets[(i+1)%len(targets)]
				m.backups = append(m.backups, next.Mem.Alloc(perBlade*uint64(m.rec)))
			}
		}
		db.tables[s.Name] = m
	}
	return db
}

// Targets returns the blades backing the database.
func (db *DB) Targets() []verbs.Target { return db.targets }

func (db *DB) meta(table string) *tableMeta {
	m := db.tables[table]
	if m == nil {
		panic("ford: unknown table " + table)
	}
	return m
}

// recordAddr returns the address of a record's primary copy.
func (db *DB) recordAddr(table string, key uint64) (blade.Addr, int) {
	m := db.meta(table)
	if key >= m.spec.Records {
		panic(fmt.Sprintf("ford: key %d out of range for %s", key, table))
	}
	b := int(key % uint64(len(db.targets)))
	idx := key / uint64(len(db.targets))
	return m.bases[b].Add(idx * uint64(m.rec)), m.rec
}

// backupAddr returns the address of a record's backup replica, or a
// nil address when the database has a single blade.
func (db *DB) backupAddr(table string, key uint64) blade.Addr {
	m := db.meta(table)
	if m.backups == nil {
		return blade.Addr{}
	}
	b := int(key % uint64(len(db.targets)))
	idx := key / uint64(len(db.targets))
	return m.backups[b].Add(idx * uint64(m.rec))
}

func (db *DB) mem(bladeID int) *blade.Blade {
	for _, tgt := range db.targets {
		if tgt.Mem.ID == bladeID {
			return tgt.Mem
		}
	}
	panic("ford: unknown blade")
}

// logFor returns (lazily creating) the log region for a thread/blade.
func (db *DB) logFor(thread, bladeID int) *logRegion {
	k := logKey{thread: thread, blade: bladeID}
	l := db.logs[k]
	if l == nil {
		l = &logRegion{key: k, base: db.mem(bladeID).Alloc(logRegionBytes), size: logRegionBytes}
		db.logs[k] = l
	}
	return l
}

// LoadDirect initializes a record's payload without RDMA (setup).
func (db *DB) LoadDirect(table string, key uint64, payload []byte) {
	addr, rec := db.recordAddr(table, key)
	if len(payload) != rec-recHdr {
		panic("ford: payload size mismatch")
	}
	mem := db.mem(addr.Blade)
	mem.Store8(addr.Offset, 0)   // lock
	mem.Store8(addr.Offset+8, 1) // version
	mem.Write(addr.Offset+recHdr, payload)
}

// ReadDirect returns a record's payload without RDMA (verification).
func (db *DB) ReadDirect(table string, key uint64) []byte {
	addr, rec := db.recordAddr(table, key)
	return db.mem(addr.Blade).Read(addr.Offset+recHdr, rec-recHdr)
}

// VersionDirect returns a record's version without RDMA.
func (db *DB) VersionDirect(table string, key uint64) uint64 {
	addr, _ := db.recordAddr(table, key)
	return db.mem(addr.Blade).Load8(addr.Offset + 8)
}

// U64 payload helpers for the 8-byte-column workloads.

// PutU64 encodes v as an 8-byte payload.
func PutU64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// writeU64 is PutU64 into an 8-byte c.Buf: inside an op the payload is
// op-scoped, which is long enough because Commit copies every staged
// payload into the record image it installs.
func writeU64(c *core.Ctx, v uint64) []byte {
	b := c.Buf(8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// U64 decodes the first 8 bytes of a payload.
func U64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }
