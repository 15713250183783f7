package core

import (
	"encoding/binary"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// The batching differential suite: for the same WR sequence, every
// batched submission mode must produce completions byte-identical in
// (WR identity, Status, success-guarded Result) to the plain per-WR
// path — including under fault.Default(), so the retransmit/timeout
// ladders and the CQ's stale-attempt accounting run through the
// chained and coalesced paths too.
//
// Robustness: watchdog-vs-CQE races are shift-invariant in the submit
// time (both the expiry and the card completion are offsets from the
// same launch), so the only absolute-time dependence is fault-window
// membership. The workload therefore posts rounds at fixed absolute
// times well inside or outside the default plan's windows; batching
// shifts submission by sub-microsecond amounts, windows are hundreds
// of microseconds wide.

// diffOutcome is the observable result of one work request.
type diffOutcome struct {
	kind   string
	status string
	result uint64 // CAS/FAA previous value; only meaningful on success
	data   uint64 // READ payload; only meaningful on success
}

// diffRecord is everything one mode's run must reproduce.
type diffRecord struct {
	outcomes  []diffOutcome
	mem       []byte
	stale     uint64
	retries   uint64
	timeouts  uint64
	abandoned uint64
}

const (
	diffRounds = 7
	diffSlots  = 10
)

// diffRoundTimes places each posting round at a fixed absolute time
// relative to fault.Default()'s windows: delay [2,3)ms, drop
// [3,3.6)ms, blackhole [3.6,4)ms, atomic failures [2,4)ms.
var diffRoundTimes = []sim.Time{
	500 * sim.Microsecond,  // clean
	1500 * sim.Microsecond, // clean
	2200 * sim.Microsecond, // delay window (+ atomic failures)
	2500 * sim.Microsecond, // delay window
	3100 * sim.Microsecond, // drop window
	3800 * sim.Microsecond, // blackhole window
	4500 * sim.Microsecond, // clean again
}

func runBatchDiff(t *testing.T, b verbs.Batching, faulted bool) diffRecord {
	t.Helper()
	cl := cluster.New(cluster.Config{
		ComputeBlades: 1,
		MemoryBlades:  1,
		BladeCapacity: 1 << 20,
		Seed:          123,
	})
	defer cl.Stop()
	opts := Baseline(PerThreadDoorbell)
	opts.WRTimeout = 12 * sim.Microsecond
	opts.MaxWRRetries = 2
	opts.Batching = b
	rt, err := New(cl.Computes[0].NIC, cl.Targets(), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if faulted {
		cl.Computes[0].NIC.SetFault(fault.Default())
	}

	mem := cl.Memories[0].Mem
	region := mem.Alloc(diffRounds * diffSlots * 8)
	for i := uint64(0); i < diffRounds*diffSlots; i++ {
		mem.Store8(region.Offset+i*8, i)
	}

	var rec diffRecord
	done := false
	rt.Thread(0).Spawn("diff", func(c *Ctx) {
		for round := 0; round < diffRounds; round++ {
			if at := diffRoundTimes[round]; at > c.Now() {
				c.Proc().Sleep(at - c.Now())
			}
			wrs := make([]*verbs.WR, diffSlots)
			for slot := 0; slot < diffSlots; slot++ {
				i := uint64(round*diffSlots + slot)
				addr := region.Add(i * 8)
				switch slot % 4 {
				case 0:
					wrs[slot] = c.Read(addr, make([]byte, 8))
				case 1:
					src := make([]byte, 8)
					binary.LittleEndian.PutUint64(src, 1000+i)
					wrs[slot] = c.Write(addr, src)
				case 2:
					// Even rounds compare the slot's initial value (the
					// CAS swaps); odd rounds miss (Result still carries
					// the previous value).
					cmp := i
					if round%2 == 1 {
						cmp = i + 1
					}
					wrs[slot] = c.CAS(addr, cmp, 7777+i)
				default:
					wrs[slot] = c.FAA(addr, 3)
				}
			}
			c.PostSend()
			c.Sync()
			for _, wr := range wrs {
				o := diffOutcome{kind: wr.Kind.String(), status: wr.Status.String()}
				if wr.Status == rnic.StatusSuccess {
					switch wr.Kind {
					case rnic.OpRead:
						o.data = binary.LittleEndian.Uint64(wr.Local)
					case rnic.OpCAS, rnic.OpFAA:
						o.result = wr.Result
					}
				}
				rec.outcomes = append(rec.outcomes, o)
			}
		}
		done = true
	})
	cl.Eng.Run(6 * sim.Millisecond)
	if !done {
		t.Fatalf("batching=%v: workload never finished", b)
	}

	rec.mem = make([]byte, diffRounds*diffSlots*8)
	mem.ReadInto(region.Offset, rec.mem)
	th := rt.Thread(0)
	rec.stale = th.cq.Stale
	rec.retries = th.Stats.FaultRetries
	rec.timeouts = th.Stats.FaultTimeouts
	rec.abandoned = th.Stats.FaultAbandoned
	return rec
}

// diffModes are the submission configurations differenced against the
// unbatched oracle. The coalescing threshold sits below the round size
// so flush-by-full fires mid-round, and the Sync flush covers the
// tail.
func diffModes() []struct {
	name string
	b    verbs.Batching
} {
	return []struct {
		name string
		b    verbs.Batching
	}{
		{"postlist", verbs.Batching{Postlist: true}},
		{"coalesce", verbs.Batching{Coalesce: true, CoalesceBatch: 4}},
		{"both", verbs.Batching{Postlist: true, Coalesce: true, CoalesceBatch: 4}},
	}
}

func assertDiffEqual(t *testing.T, name string, slots int, want, got diffRecord) {
	t.Helper()
	if len(want.outcomes) != len(got.outcomes) {
		t.Fatalf("%s: %d outcomes vs oracle's %d", name, len(got.outcomes), len(want.outcomes))
	}
	for i := range want.outcomes {
		if want.outcomes[i] != got.outcomes[i] {
			t.Errorf("%s: WR %d (round %d slot %d): %+v, oracle %+v",
				name, i, i/slots, i%slots, got.outcomes[i], want.outcomes[i])
		}
	}
	for i := range want.mem {
		if want.mem[i] != got.mem[i] {
			t.Fatalf("%s: final memory differs at byte %d: %d vs oracle %d",
				name, i, got.mem[i], want.mem[i])
		}
	}
	if got.stale != want.stale || got.retries != want.retries ||
		got.timeouts != want.timeouts || got.abandoned != want.abandoned {
		t.Errorf("%s: stale/retries/timeouts/abandoned = %d/%d/%d/%d, oracle %d/%d/%d/%d",
			name, got.stale, got.retries, got.timeouts, got.abandoned,
			want.stale, want.retries, want.timeouts, want.abandoned)
	}
}

func TestBatchingDifferentialFaultFree(t *testing.T) {
	oracle := runBatchDiff(t, verbs.Batching{}, false)
	if oracle.retries != 0 || oracle.abandoned != 0 {
		t.Fatalf("fault-free oracle saw retries=%d abandoned=%d", oracle.retries, oracle.abandoned)
	}
	for _, m := range diffModes() {
		t.Run(m.name, func(t *testing.T) {
			assertDiffEqual(t, m.name, diffSlots, oracle, runBatchDiff(t, m.b, false))
		})
	}
}

func TestBatchingDifferentialUnderFaults(t *testing.T) {
	oracle := runBatchDiff(t, verbs.Batching{}, true)
	// The default plan must actually have exercised the recovery
	// ladders through the oracle — otherwise the equality below is
	// vacuous.
	if oracle.timeouts == 0 || oracle.retries == 0 {
		t.Fatalf("fault plan exercised nothing: timeouts=%d retries=%d",
			oracle.timeouts, oracle.retries)
	}
	if oracle.stale == 0 {
		t.Fatal("no stale completions: the delay window should outlive the watchdog")
	}
	for _, m := range diffModes() {
		t.Run(m.name, func(t *testing.T) {
			assertDiffEqual(t, m.name, diffSlots, oracle, runBatchDiff(t, m.b, true))
		})
	}
}
