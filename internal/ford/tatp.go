package ford

import (
	"encoding/binary"
	"math/rand"

	"repro/internal/core"
	"repro/internal/verbs"
)

// TATP is the Telecom Application Transaction Processing benchmark:
// 80% read-only transactions over subscriber data, uniformly
// distributed keys. Record payloads follow the spirit of the schema
// (the subscriber row is by far the widest), which makes TATP lean on
// bandwidth where SmallBank leans on IOPS — the distinction §6.2.2
// reports.
type TATP struct {
	DB *DB
	N  uint64
}

const (
	tatpGetSubscriberData    = iota // 35%, read-only
	tatpGetNewDestination           // 10%, read-only
	tatpGetAccessData               // 35%, read-only
	tatpUpdateSubscriberData        //  2%
	tatpUpdateLocation              // 14%
	tatpInsertCallForwarding        //  2%
	tatpDeleteCallForwarding        //  2%
)

// NewTATP creates the four tables over the blades.
func NewTATP(targets []verbs.Target, subscribers uint64) *TATP {
	db := NewDB(targets, []TableSpec{
		{Name: "subscriber", Records: subscribers, Payload: 256},
		{Name: "access_info", Records: subscribers, Payload: 64},
		{Name: "special_facility", Records: subscribers, Payload: 64},
		{Name: "call_forwarding", Records: subscribers, Payload: 64},
	})
	return &TATP{DB: db, N: subscribers}
}

// Load populates all tables. Each row is the key in its first 8 bytes
// and zeros after; LoadDirect copies, so one array per width serves
// every row.
func (tp *TATP) Load() {
	var sub [256]byte
	var row [64]byte
	for k := uint64(0); k < tp.N; k++ {
		binary.LittleEndian.PutUint64(sub[:], k)
		binary.LittleEndian.PutUint64(row[:], k)
		tp.DB.LoadDirect("subscriber", k, sub[:])
		tp.DB.LoadDirect("access_info", k, row[:])
		tp.DB.LoadDirect("special_facility", k, row[:])
		tp.DB.LoadDirect("call_forwarding", k, row[:])
	}
}

func (tp *TATP) pick(rng *rand.Rand) int {
	r := rng.Float64()
	switch {
	case r < 0.35:
		return tatpGetSubscriberData
	case r < 0.45:
		return tatpGetNewDestination
	case r < 0.80:
		return tatpGetAccessData
	case r < 0.82:
		return tatpUpdateSubscriberData
	case r < 0.96:
		return tatpUpdateLocation
	case r < 0.98:
		return tatpInsertCallForwarding
	default:
		return tatpDeleteCallForwarding
	}
}

// RunOne executes one logical transaction to commit, retrying aborts,
// and returns the abort count.
func (tp *TATP) RunOne(c *core.Ctx, rng *rand.Rand) (aborts int) {
	c.BeginOp()
	defer c.EndOp()
	kind := tp.pick(rng)
	sid := uint64(rng.Int63n(int64(tp.N)))
	loc := rng.Uint64()
	for {
		if tp.exec(c, kind, sid, loc) == nil {
			return aborts
		}
		aborts++
	}
}

func (tp *TATP) exec(c *core.Ctx, kind int, sid, loc uint64) error {
	tx := tp.DB.Begin(c)
	var err error
	switch kind {
	case tatpGetSubscriberData:
		_, err = tx.Read("subscriber", sid)
	case tatpGetNewDestination:
		if _, err = tx.Read("special_facility", sid); err == nil {
			_, err = tx.Read("call_forwarding", sid)
		}
	case tatpGetAccessData:
		_, err = tx.Read("access_info", sid)
	case tatpUpdateSubscriberData:
		var sub []byte
		if sub, err = tx.ReadForUpdate("subscriber", sid); err == nil {
			if _, err = tx.ReadForUpdate("special_facility", sid); err == nil {
				ns := c.Buf(len(sub))
				copy(ns, sub)
				binary.LittleEndian.PutUint64(ns, loc)
				tx.Write("subscriber", sid, ns)
				sf := c.Buf(64)
				binary.LittleEndian.PutUint64(sf, loc)
				tx.Write("special_facility", sid, sf)
			}
		}
	case tatpUpdateLocation:
		var sub []byte
		if sub, err = tx.ReadForUpdate("subscriber", sid); err == nil {
			ns := c.Buf(len(sub))
			copy(ns, sub)
			binary.LittleEndian.PutUint64(ns[8:], loc)
			tx.Write("subscriber", sid, ns)
		}
	case tatpInsertCallForwarding:
		if _, err = tx.Read("special_facility", sid); err == nil {
			if _, err = tx.ReadForUpdate("call_forwarding", sid); err == nil {
				cf := c.Buf(64)
				binary.LittleEndian.PutUint64(cf, loc|1)
				tx.Write("call_forwarding", sid, cf)
			}
		}
	case tatpDeleteCallForwarding:
		if _, err = tx.ReadForUpdate("call_forwarding", sid); err == nil {
			tx.Write("call_forwarding", sid, c.Buf(64))
		}
	}
	if err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}
