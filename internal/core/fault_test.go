package core

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/result"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// countInjector perturbs the first n covered ops with a fixed verdict,
// then lets everything through — deterministic fault scenarios without
// probability draws. kinds == 0 covers every kind.
type countInjector struct {
	n       int
	kinds   uint8 // bitmask over rnic.OpKind, 0 = all
	verdict rnic.Verdict
}

func (ci *countInjector) Decide(kind rnic.OpKind, now sim.Time, rng *rand.Rand) rnic.Verdict {
	if ci.kinds != 0 && ci.kinds&(1<<kind) == 0 {
		return rnic.Verdict{}
	}
	if ci.n <= 0 {
		return rnic.Verdict{}
	}
	ci.n--
	return ci.verdict
}

func faultOpts(timeout sim.Time, retries int) Options {
	opts := Baseline(PerThreadDoorbell)
	opts.WRTimeout = timeout
	opts.MaxWRRetries = retries
	return opts
}

func TestWatchdogRecoversBlackholedWR(t *testing.T) {
	cl, rt := testRig(t, 1, 1, faultOpts(20*sim.Microsecond, 2))
	cl.Computes[0].NIC.SetFault(&countInjector{
		n: 1, verdict: rnic.Verdict{Action: rnic.ActBlackhole}})
	mem := cl.Memories[0].Mem
	addr := mem.Alloc(8)
	mem.Store8(addr.Offset, 42)

	var got uint64
	done := false
	rt.Thread(0).Spawn("w", func(c *Ctx) {
		buf := make([]byte, 8)
		c.ReadSync(addr, buf)
		got = binary.LittleEndian.Uint64(buf)
		done = true
	})
	cl.Eng.Run(sim.Millisecond)

	if !done {
		t.Fatal("ReadSync never returned: the watchdog did not recover the blackholed WR")
	}
	if got != 42 {
		t.Fatalf("recovered READ returned %d, want 42", got)
	}
	s := rt.Thread(0).Stats
	if s.FaultTimeouts != 1 || s.FaultRetries != 1 || s.FaultAbandoned != 0 {
		t.Errorf("stats = timeouts %d, retries %d, abandoned %d; want 1, 1, 0",
			s.FaultTimeouts, s.FaultRetries, s.FaultAbandoned)
	}
}

func TestSyncRetriesNAKedWR(t *testing.T) {
	cl, rt := testRig(t, 1, 1, faultOpts(0, 3))
	cl.Computes[0].NIC.SetFault(&countInjector{
		n: 2, verdict: rnic.Verdict{Action: rnic.ActFail, Status: rnic.StatusRemoteAccessErr}})
	mem := cl.Memories[0].Mem
	addr := mem.Alloc(8)

	done := false
	rt.Thread(0).Spawn("w", func(c *Ctx) {
		c.WriteSync(addr, []byte{9, 0, 0, 0, 0, 0, 0, 0})
		done = true
	})
	cl.Eng.Run(sim.Millisecond)

	if !done {
		t.Fatal("WriteSync never returned")
	}
	if mem.Load8(addr.Offset) != 9 {
		t.Fatalf("retried WRITE never landed: memory = %d", mem.Load8(addr.Offset))
	}
	s := rt.Thread(0).Stats
	if s.FaultRetries != 2 || s.FaultAbandoned != 0 || s.FaultTimeouts != 0 {
		t.Errorf("stats = retries %d, abandoned %d, timeouts %d; want 2, 0, 0",
			s.FaultRetries, s.FaultAbandoned, s.FaultTimeouts)
	}
}

func TestSyncAbandonsAfterRetryBudget(t *testing.T) {
	cl, rt := testRig(t, 1, 1, faultOpts(0, 2))
	// Every WRITE fails, forever: Sync must burn its budget and give up
	// rather than spin.
	cl.Computes[0].NIC.SetFault(&countInjector{
		n: 1 << 30, kinds: 1 << rnic.OpWrite,
		verdict: rnic.Verdict{Action: rnic.ActFail, Status: rnic.StatusRemoteAccessErr}})
	mem := cl.Memories[0].Mem
	addr := mem.Alloc(8)

	var wr *struct {
		status rnic.Status
	}
	done := false
	rt.Thread(0).Spawn("w", func(c *Ctx) {
		w := c.Write(addr, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		c.PostSend()
		c.Sync()
		wr = &struct{ status rnic.Status }{w.Status}
		done = true
	})
	cl.Eng.Run(sim.Millisecond)

	if !done {
		t.Fatal("Sync never returned on a permanently failing WR")
	}
	if wr.status != rnic.StatusRemoteAccessErr {
		t.Errorf("abandoned WR status = %v, want remote-access-error", wr.status)
	}
	if mem.Load8(addr.Offset) != 0 {
		t.Error("abandoned WRITE mutated memory")
	}
	s := rt.Thread(0).Stats
	// 1 initial post + 2 retry rounds, then abandoned.
	if s.FaultRetries != 2 || s.FaultAbandoned != 1 {
		t.Errorf("stats = retries %d, abandoned %d; want 2, 1", s.FaultRetries, s.FaultAbandoned)
	}
}

func TestZeroRetryBudgetAbandonsImmediately(t *testing.T) {
	cl, rt := testRig(t, 1, 1, faultOpts(0, 0))
	cl.Computes[0].NIC.SetFault(&countInjector{
		n: 1, verdict: rnic.Verdict{Action: rnic.ActFail, Status: rnic.StatusRemoteAccessErr}})
	addr := cl.Memories[0].Mem.Alloc(8)

	done := false
	rt.Thread(0).Spawn("w", func(c *Ctx) {
		c.WriteSync(addr, make([]byte, 8))
		done = true
	})
	cl.Eng.Run(sim.Millisecond)

	if !done {
		t.Fatal("Sync never returned")
	}
	s := rt.Thread(0).Stats
	if s.FaultRetries != 0 || s.FaultAbandoned != 1 {
		t.Errorf("stats = retries %d, abandoned %d; want 0, 1", s.FaultRetries, s.FaultAbandoned)
	}
}

func TestRetryExceededSurfacesToSync(t *testing.T) {
	// A drop verdict beyond the transport's retransmit budget completes
	// with retry-exceeded after the full timeout ladder; Sync's retry
	// (now fault-free) recovers it.
	cl, rt := testRig(t, 1, 1, faultOpts(0, 1))
	cl.Computes[0].NIC.SetFault(&countInjector{
		n: 1, verdict: rnic.Verdict{Action: rnic.ActDrop, Drops: 100}})
	mem := cl.Memories[0].Mem
	addr := mem.Alloc(8)
	mem.Store8(addr.Offset, 5)

	var got uint64
	done := false
	rt.Thread(0).Spawn("w", func(c *Ctx) {
		buf := make([]byte, 8)
		c.ReadSync(addr, buf)
		got = binary.LittleEndian.Uint64(buf)
		done = true
	})
	cl.Eng.Run(sim.Millisecond)

	if !done || got != 5 {
		t.Fatalf("done=%v got=%d, want recovered READ of 5", done, got)
	}
	c := cl.Computes[0].NIC.Snapshot()
	p := cl.Computes[0].NIC.P
	if c.Retransmits != uint64(p.MaxRetransmits) {
		t.Errorf("retransmits = %d, want the full budget %d", c.Retransmits, p.MaxRetransmits)
	}
	if s := rt.Thread(0).Stats; s.FaultRetries != 1 {
		t.Errorf("fault retries = %d, want 1", s.FaultRetries)
	}
}

// counterLabels collects the labels of the "counters" telemetry table.
func counterLabels(reg *telemetry.Registry) []string {
	var out []string
	if tb := result.Find(reg.Tables(), "counters"); tb != nil {
		for _, s := range tb.Series {
			for _, p := range s.Points {
				out = append(out, p.Label)
			}
		}
	}
	return out
}

func TestCollectEmitsFaultCountersOnlyWhenActive(t *testing.T) {
	// Fault machinery engaged: the six fault/* counters appear.
	cl, rt := testRig(t, 1, 1, faultOpts(20*sim.Microsecond, 1))
	cl.Computes[0].NIC.SetFault(&countInjector{
		n: 1, verdict: rnic.Verdict{Action: rnic.ActBlackhole}})
	addr := cl.Memories[0].Mem.Alloc(8)
	rt.Thread(0).Spawn("w", func(c *Ctx) {
		c.ReadSync(addr, make([]byte, 8))
	})
	cl.Eng.Run(sim.Millisecond)

	reg := telemetry.New()
	rt.Collect(reg)
	if v := reg.Value("fault/injected"); v != 1 {
		t.Errorf("fault/injected = %d, want 1", v)
	}
	if v := reg.Value("fault/timeouts"); v != 1 {
		t.Errorf("fault/timeouts = %d, want 1", v)
	}
	if v := reg.Value("fault/retries"); v != 1 {
		t.Errorf("fault/retries = %d, want 1", v)
	}

	// Fault-free runtime: no fault/* counter may leak into the tables,
	// keeping pre-fault telemetry goldens byte-identical.
	cl2, rt2 := testRig(t, 1, 1, Baseline(PerThreadDoorbell))
	addr2 := cl2.Memories[0].Mem.Alloc(8)
	rt2.Thread(0).Spawn("w", func(c *Ctx) {
		c.ReadSync(addr2, make([]byte, 8))
	})
	cl2.Eng.Run(sim.Millisecond)

	reg2 := telemetry.New()
	rt2.Collect(reg2)
	for _, label := range counterLabels(reg2) {
		if strings.HasPrefix(label, "fault/") {
			t.Errorf("fault-free Collect emitted %q", label)
		}
	}
}
