package workload

import "math/rand"

// OpType is a YCSB operation kind.
type OpType int

const (
	Lookup OpType = iota
	Update
)

// Mix is a YCSB read/write ratio. The paper evaluates three:
// write-heavy (50% updates), read-heavy (5% updates), and read-only.
type Mix struct {
	Name       string
	UpdateFrac float64
}

// The three mixes used throughout §6.
var (
	WriteHeavy = Mix{Name: "write-heavy", UpdateFrac: 0.50}
	ReadHeavy  = Mix{Name: "read-heavy", UpdateFrac: 0.05}
	ReadOnly   = Mix{Name: "read-only", UpdateFrac: 0.00}
	UpdateOnly = Mix{Name: "update-only", UpdateFrac: 1.00}
)

// YCSB generates a stream of (op, key) pairs: keys Zipfian over the
// loaded key space, operations Bernoulli over the mix.
type YCSB struct {
	mix  Mix
	keys Zipf // keys.rng also draws the operation
}

// NewYCSB returns a generator over n keys with the given skew and mix.
// Like NewZipf it is O(n) for theta > 0.
func NewYCSB(rng *rand.Rand, n uint64, theta float64, mix Mix) *YCSB {
	return &YCSB{mix: mix, keys: *NewZipf(rng, n, theta)}
}

// WithRand returns a generator with y's key distribution and mix that
// draws from rng: what NewYCSB(rng, n, theta, mix) would return, in
// O(1). The two share only immutable constants, so y may be a template
// built on a nil rng from which every coroutine's generator is derived.
func (y *YCSB) WithRand(rng *rand.Rand) *YCSB {
	c := *y
	c.keys.rng = rng
	return &c
}

// Next draws the next operation.
func (y *YCSB) Next() (OpType, uint64) {
	op := Lookup
	if y.keys.rng.Float64() < y.mix.UpdateFrac {
		op = Update
	}
	return op, y.keys.Next()
}
