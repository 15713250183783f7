package rnic

import (
	"math/rand"
	"testing"

	"repro/internal/blade"
	"repro/internal/sim"
)

// fixedVerdict is an Injector that gives every op the same verdict.
type fixedVerdict Verdict

func (v fixedVerdict) Decide(OpKind, sim.Time, *rand.Rand) Verdict { return Verdict(v) }

// TestFlightAllocs pins the card's per-op allocation: an op on a card
// whose flight pool is empty allocates at most the flight and its one
// bound callback, and an op that takes a pooled flight allocates
// nothing. The cases drive every branch of the stage chain — the media
// delay, the atomic unit, the WQE-miss delay, the lengthened wire hop
// and the NAK path — and each checks the counter that shows its branch
// ran, so every stage is reached through then.
func TestFlightAllocs(t *testing.T) {
	cases := []struct {
		name  string
		kind  OpKind
		mem   blade.Kind
		setup func(req *RNIC)
		ran   func(req, resp *RNIC) bool
	}{
		{"dram-read", OpRead, blade.DRAM, nil,
			func(req, _ *RNIC) bool { return req.C.Completed > 0 }},
		{"nvm-write", OpWrite, blade.NVM, nil,
			func(req, resp *RNIC) bool { return resp.P.NVMWriteExtra > 0 && req.C.Completed > 0 }},
		{"cas", OpCAS, blade.DRAM, nil,
			func(_, resp *RNIC) bool { return resp.C.AtomicOps > 0 }},
		{"wqe-miss", OpRead, blade.DRAM,
			func(req *RNIC) { req.P.WQECacheEntries = 0 }, // every completion misses
			func(req, _ *RNIC) bool { return req.C.WQEMisses > 0 }},
		{"delay", OpRead, blade.DRAM,
			func(req *RNIC) { req.SetFault(fixedVerdict{Action: ActDelay, Factor: 2}) },
			func(req, _ *RNIC) bool { return req.C.Injected > 0 && req.C.Completed > 0 }},
		{"fail", OpWrite, blade.DRAM,
			func(req *RNIC) { req.SetFault(fixedVerdict{Action: ActFail}) },
			func(req, _ *RNIC) bool { return req.C.Errors > 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, req, resp := pair(1)
			defer e.Stop()
			if c.setup != nil {
				c.setup(req)
			}
			op := &Op{Kind: c.kind, Payload: 8}
			run := func() {
				op.Status = StatusSuccess
				req.Submit(op, resp, c.mem)
				e.Run(0)
			}
			fresh := testing.AllocsPerRun(100, func() {
				clear(req.flights)
				req.flights = req.flights[:0]
				run()
			})
			if fresh > 2 {
				t.Errorf("op on an empty flight pool: %v allocs, want at most 2 (flight, fnStep)", fresh)
			}
			if pooled := testing.AllocsPerRun(100, run); pooled != 0 {
				t.Errorf("op on a pooled flight: %v allocs, want 0", pooled)
			}
			if !c.ran(req, resp) {
				t.Errorf("the %s branch never ran: counters %+v", c.name, req.C)
			}
		})
	}
}
