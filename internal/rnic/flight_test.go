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
// delay, the atomic unit, the WQE-miss delay, the lengthened wire hop,
// the NAK path and the blackhole — and each checks the counter that shows its branch
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
		{"blackhole", OpRead, blade.DRAM,
			func(req *RNIC) { req.SetFault(fixedVerdict{Action: ActBlackhole}) },
			func(req, _ *RNIC) bool { return req.C.Injected > 0 && req.C.Completed+req.C.Errors == 0 }},
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

// TestBlackholeReturnsFlights pins a blackholed op's path: it takes a
// pooled flight through the requester pipeline and outbound link, and
// once the transport's retry budget elapses the flight comes back to
// the pool and the send-queue slot is reclaimed, with no execution and
// no completion. After a burst of blackholed ops the card's pool holds
// every flight the burst made, and a second burst makes none.
func TestBlackholeReturnsFlights(t *testing.T) {
	const burst = 8
	e, req, resp := pair(1)
	defer e.Stop()
	req.SetFault(fixedVerdict{Action: ActBlackhole})
	touched := 0
	ops := make([]*Op, burst)
	for i := range ops {
		ops[i] = &Op{Kind: OpRead, Payload: 8, Exec: func() { touched++ }, Complete: func() { touched++ }}
	}
	for round := 0; round < 2; round++ {
		for _, op := range ops {
			req.Submit(op, resp, blade.DRAM)
		}
		if got := req.Outstanding(); got != burst {
			t.Fatalf("round %d: %d outstanding after the burst, want %d", round, got, burst)
		}
		start := e.Now()
		e.Run(0)
		if len(req.flights) != burst {
			t.Errorf("round %d: the pool holds %d flights, want the burst's %d", round, len(req.flights), burst)
		}
		if got := req.Outstanding(); got != 0 {
			t.Errorf("round %d: %d still outstanding, want every slot reclaimed", round, got)
		}
		if budget := sim.Time(req.P.MaxRetransmits+1) * req.P.RetransmitTimeout; e.Now()-start < budget {
			t.Errorf("round %d: the ops vanished after %v, before the retry budget %v", round, e.Now()-start, budget)
		}
	}
	if touched != 0 || req.C.Completed+req.C.Errors != 0 || req.C.Injected != 2*burst {
		t.Errorf("a blackholed op executed or completed: %d callbacks ran, counters %+v", touched, req.C)
	}
}
