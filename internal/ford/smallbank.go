package ford

import (
	"encoding/binary"
	"math/rand"

	"repro/internal/core"
	"repro/internal/verbs"
)

// SmallBank is the H-Store SmallBank benchmark: checking and savings
// accounts with six transaction types, 85% of which are read-write.
type SmallBank struct {
	DB *DB
	N  uint64

	// HotN accounts receive HotProb of all account picks — the
	// standard SmallBank hotspot that creates lock contention.
	HotN    uint64
	HotProb float64
}

// SmallBank transaction types and their standard mix.
const (
	sbAmalgamate = iota
	sbBalance
	sbDepositChecking
	sbSendPayment
	sbTransactSavings
	sbWriteCheck
)

// NewSmallBank creates the schema over the blades.
func NewSmallBank(targets []verbs.Target, accounts uint64) *SmallBank {
	db := NewDB(targets, []TableSpec{
		{Name: "savings", Records: accounts, Payload: 8},
		{Name: "checking", Records: accounts, Payload: 8},
	})
	hot := accounts / 100
	if hot < 10 {
		hot = 10
	}
	return &SmallBank{DB: db, N: accounts, HotN: hot, HotProb: 0.25}
}

// Load initializes every account with a starting balance.
func (sb *SmallBank) Load() {
	var bal [8]byte
	binary.LittleEndian.PutUint64(bal[:], 10_000)
	for k := uint64(0); k < sb.N; k++ {
		sb.DB.LoadDirect("savings", k, bal[:])
		sb.DB.LoadDirect("checking", k, bal[:])
	}
}

// account draws an account id with the hotspot distribution.
func (sb *SmallBank) account(rng *rand.Rand) uint64 {
	if rng.Float64() < sb.HotProb {
		return uint64(rng.Int63n(int64(sb.HotN)))
	}
	return uint64(rng.Int63n(int64(sb.N)))
}

// pick draws a transaction type with the standard mix:
// 15/15/15/25/15/15.
func (sb *SmallBank) pick(rng *rand.Rand) int {
	r := rng.Float64()
	switch {
	case r < 0.15:
		return sbAmalgamate
	case r < 0.30:
		return sbBalance
	case r < 0.45:
		return sbDepositChecking
	case r < 0.70:
		return sbSendPayment
	case r < 0.85:
		return sbTransactSavings
	default:
		return sbWriteCheck
	}
}

// RunOne executes one logical transaction to commit, retrying aborted
// attempts, and returns the number of aborts. The whole transaction is
// one BeginOp/EndOp bracket so SMART's coroutine throttle and retry
// statistics see it as a single operation.
func (sb *SmallBank) RunOne(c *core.Ctx, rng *rand.Rand) (aborts int) {
	c.BeginOp()
	defer c.EndOp()
	kind := sb.pick(rng)
	a := sb.account(rng)
	b := sb.account(rng)
	for b == a {
		b = sb.account(rng)
	}
	amount := uint64(rng.Int63n(100)) + 1
	for {
		if sb.exec(c, kind, a, b, amount) == nil {
			return aborts
		}
		aborts++
	}
}

func (sb *SmallBank) exec(c *core.Ctx, kind int, a, b, amount uint64) error {
	tx := sb.DB.Begin(c)
	var err error
	switch kind {
	case sbAmalgamate:
		// Move all of a's funds into b's checking account.
		var sav, chkA, chkB []byte
		if sav, err = tx.ReadForUpdate("savings", a); err == nil {
			if chkA, err = tx.ReadForUpdate("checking", a); err == nil {
				chkB, err = tx.ReadForUpdate("checking", b)
				if err == nil {
					total := U64(sav) + U64(chkA)
					tx.Write("savings", a, writeU64(c, 0))
					tx.Write("checking", a, writeU64(c, 0))
					tx.Write("checking", b, writeU64(c, U64(chkB)+total))
				}
			}
		}
	case sbBalance:
		if _, err = tx.Read("savings", a); err == nil {
			_, err = tx.Read("checking", a)
		}
	case sbDepositChecking:
		var chk []byte
		if chk, err = tx.ReadForUpdate("checking", a); err == nil {
			tx.Write("checking", a, writeU64(c, U64(chk)+amount))
		}
	case sbSendPayment:
		var chkA, chkB []byte
		if chkA, err = tx.ReadForUpdate("checking", a); err == nil {
			if chkB, err = tx.ReadForUpdate("checking", b); err == nil {
				tx.Write("checking", a, writeU64(c, U64(chkA)-amount))
				tx.Write("checking", b, writeU64(c, U64(chkB)+amount))
			}
		}
	case sbTransactSavings:
		var sav []byte
		if sav, err = tx.ReadForUpdate("savings", a); err == nil {
			tx.Write("savings", a, writeU64(c, U64(sav)+amount))
		}
	case sbWriteCheck:
		var chk []byte
		if _, err = tx.Read("savings", a); err == nil {
			if chk, err = tx.ReadForUpdate("checking", a); err == nil {
				tx.Write("checking", a, writeU64(c, U64(chk)-amount))
			}
		}
	}
	if err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// TotalDirect sums all balances without RDMA (conservation checks).
func (sb *SmallBank) TotalDirect() uint64 {
	var sum uint64
	for k := uint64(0); k < sb.N; k++ {
		sum += U64(sb.DB.ReadDirect("savings", k))
		sum += U64(sb.DB.ReadDirect("checking", k))
	}
	return sum
}
