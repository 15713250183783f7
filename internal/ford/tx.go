package ford

import (
	"encoding/binary"
	"errors"
	"slices"

	"repro/internal/blade"
	"repro/internal/core"
)

// ErrConflict is returned when a transaction loses a lock race or
// fails read-set validation. The caller aborts and retries.
var ErrConflict = errors.New("ford: transaction conflict")

type rsEntry struct {
	table   string
	key     uint64
	addr    blade.Addr
	version uint64
	data    []byte
}

type wsEntry struct {
	table   string
	key     uint64
	addr    blade.Addr
	rec     int
	version uint64
	data    []byte // current payload (from the locked read)
	newData []byte // staged payload (nil until Write)
	locked  bool
}

// Tx is one transaction attempt. It must end in Commit or Abort, and
// must not be used once either has returned: the DB hands a finished
// Tx out again, so a stale handle would act on someone else's attempt.
type Tx struct {
	db   *DB
	c    *core.Ctx
	rs   []rsEntry
	ws   []wsEntry
	done bool
}

// Begin starts a transaction attempt on the coroutine c. The caller is
// expected to bracket attempts of one logical transaction between
// c.BeginOp and c.EndOp so conflict-avoidance statistics and the
// coroutine throttle see it as one operation. A finished Tx is reused,
// read and write sets emptied but their capacity kept, so retried
// attempts allocate nothing.
func (db *DB) Begin(c *core.Ctx) *Tx {
	n := len(db.freeTxs)
	if n == 0 {
		return &Tx{db: db, c: c}
	}
	tx := db.freeTxs[n-1]
	db.freeTxs[n-1] = nil
	db.freeTxs = db.freeTxs[:n-1]
	tx.c, tx.done = c, false
	return tx
}

// finish marks tx done and hands it back to its DB. Clearing the
// entries drops every payload reference, which points into the op's
// Buf arena or the caller's staged data.
func (tx *Tx) finish() {
	tx.done = true
	clear(tx.rs)
	clear(tx.ws)
	tx.rs, tx.ws = tx.rs[:0], tx.ws[:0]
	tx.c = nil
	tx.db.freeTxs = append(tx.db.freeTxs, tx)
}

// lockTag is the value written into record lock words.
func (tx *Tx) lockTag() uint64 { return uint64(tx.c.T.ID)<<8 | 1 }

// Read adds (table, key) to the read set and returns its payload.
// Reads of keys already in the transaction's own write set are served
// locally (read-own-writes) without touching the network. Inside a
// c.BeginOp…EndOp bracket the payload is op-scoped (core.Ctx.Buf):
// valid until EndOp. ReadForUpdate's payload is too.
func (tx *Tx) Read(table string, key uint64) ([]byte, error) {
	for i := range tx.ws {
		if tx.ws[i].table == table && tx.ws[i].key == key {
			if tx.ws[i].newData != nil {
				return tx.ws[i].newData, nil
			}
			return tx.ws[i].data, nil
		}
	}
	addr, rec := tx.db.recordAddr(table, key)
	buf := tx.c.Buf(rec)
	tx.c.ReadSync(addr, buf)
	e := rsEntry{
		table:   table,
		key:     key,
		addr:    addr,
		version: binary.LittleEndian.Uint64(buf[8:16]),
		data:    buf[recHdr:],
	}
	if binary.LittleEndian.Uint64(buf[0:8]) != 0 {
		// Record locked by a writer: its payload may be mid-update.
		return nil, ErrConflict
	}
	tx.rs = append(tx.rs, e)
	return e.data, nil
}

// ReadForUpdate locks (table, key) with a CAS — applying SMART's
// backoff when enabled — then reads it. A lost lock race returns
// ErrConflict.
func (tx *Tx) ReadForUpdate(table string, key uint64) ([]byte, error) {
	addr, rec := tx.db.recordAddr(table, key)
	if _, ok := tx.c.BackoffCASSync(addr, 0, tx.lockTag()); !ok {
		return nil, ErrConflict
	}
	buf := tx.c.Buf(rec)
	tx.c.ReadSync(addr, buf)
	e := wsEntry{
		table:   table,
		key:     key,
		addr:    addr,
		rec:     rec,
		version: binary.LittleEndian.Uint64(buf[8:16]),
		data:    buf[recHdr:],
		locked:  true,
	}
	tx.ws = append(tx.ws, e)
	return e.data, nil
}

// Write stages a new payload for a key previously locked with
// ReadForUpdate.
func (tx *Tx) Write(table string, key uint64, payload []byte) {
	for i := range tx.ws {
		if tx.ws[i].table == table && tx.ws[i].key == key {
			if len(payload) != tx.ws[i].rec-recHdr {
				panic("ford: payload size mismatch")
			}
			tx.ws[i].newData = payload
			return
		}
	}
	panic("ford: Write without ReadForUpdate")
}

// Commit validates the read set, persists the undo log, and installs
// the write set. On ErrConflict the transaction has already been
// aborted (locks released).
func (tx *Tx) Commit() error {
	if tx.done {
		panic("ford: Commit on finished tx")
	}
	c := tx.c

	// Validation: re-read read-set version words in one batch.
	if len(tx.rs) > 0 {
		vers := c.Buf(8 * len(tx.rs))
		for i, e := range tx.rs {
			c.Read(e.addr.Add(8), vers[8*i:8*i+8])
		}
		c.Sync()
		for i, e := range tx.rs {
			if binary.LittleEndian.Uint64(vers[8*i:]) != e.version {
				tx.Abort()
				return ErrConflict
			}
		}
	}

	if len(tx.ws) == 0 {
		tx.finish()
		return nil // read-only: validated, done
	}

	// Undo log: one WRITE per involved blade carrying the old images
	// [key | version | payload] in write-set order, persisted on NVM
	// before any in-place update. Blades go in ascending ID order: the
	// order these WRITEs are posted is visible to the simulator's event
	// schedule.
	var ids [8]int
	bladeIDs := ids[:0]
	for _, e := range tx.ws {
		if !slices.Contains(bladeIDs, e.addr.Blade) {
			bladeIDs = append(bladeIDs, e.addr.Blade)
		}
	}
	slices.Sort(bladeIDs)
	for _, bladeID := range bladeIDs {
		n := 0
		for _, e := range tx.ws {
			if e.addr.Blade == bladeID {
				n += 16 + len(e.data)
			}
		}
		img, off := c.Buf(n), 0
		for _, e := range tx.ws {
			if e.addr.Blade == bladeID {
				binary.LittleEndian.PutUint64(img[off:], e.key)
				binary.LittleEndian.PutUint64(img[off+8:], e.version)
				off += 16 + copy(img[off+16:], e.data)
			}
		}
		l := tx.db.logFor(c.T.ID, bladeID)
		c.Write(l.next(uint64(n)), img)
	}
	c.Sync()

	// Install: one WRITE per record rewrites [lock=0 | version+1 |
	// payload], releasing the lock in the same request, plus one WRITE
	// per backup replica (FORD's primary-backup replication).
	for _, e := range tx.ws {
		payload := e.newData
		if payload == nil {
			payload = e.data // locked but unmodified: write back as-is
		}
		rec := c.Buf(e.rec)
		binary.LittleEndian.PutUint64(rec[8:16], e.version+1)
		copy(rec[recHdr:], payload)
		c.Write(e.addr, rec)
		if bk := tx.db.backupAddr(e.table, e.key); !bk.IsNil() {
			c.Write(bk, rec)
		}
	}
	c.Sync()
	tx.finish()
	return nil
}

// Abort releases every lock the transaction acquired.
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	zero := tx.c.Buf(8)
	n := 0
	for _, e := range tx.ws {
		if e.locked {
			tx.c.Write(e.addr, zero)
			n++
		}
	}
	if n > 0 {
		tx.c.Sync()
	}
	tx.finish()
}
