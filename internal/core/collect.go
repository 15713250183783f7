package core

import (
	"repro/internal/result"
	"repro/internal/telemetry"
	"repro/internal/verbs"
)

// Collect harvests the run's layer counters into reg — the software
// Neo-Host snapshot taken after a measurement completes. Live signals
// (controller trajectories, trace events) stream into the registry
// during the run via Options.Telemetry; Collect adds everything that
// is cheaper to read once at the end: RNIC pipeline counters, per-
// doorbell spinlock totals, scheduler baton traffic, and per-thread
// operation statistics.
//
// Collect is idempotent (counters are Set, and a repeat harvest
// replaces the rows of Collect's own groups rather than appending to
// them) and deterministic: every walk is over slices in creation
// order, and the one map involved (QP dedup) is only ever looked up,
// never ranged.
func (rt *Runtime) Collect(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	pre := rt.opts.TelemetryPrefix
	// group returns one of Collect's own groups, emptied of an earlier
	// harvest's rows.
	group := func(id, title, xlabel string) *result.Table {
		g := reg.Group(pre+id, title, xlabel)
		for i := range g.Series {
			g.Series[i].Points = g.Series[i].Points[:0]
		}
		return g
	}

	// RNIC pipeline totals (each runtime fronts one card).
	c := rt.nic.Snapshot()
	reg.Counter(pre + "nic/completed").Set(c.Completed)
	reg.Counter(pre + "nic/completed-read").Set(c.ByKind[0])
	reg.Counter(pre + "nic/completed-write").Set(c.ByKind[1])
	reg.Counter(pre + "nic/completed-cas").Set(c.ByKind[2])
	reg.Counter(pre + "nic/completed-faa").Set(c.ByKind[3])
	reg.Counter(pre + "nic/dma-bytes").Set(c.DMABytes)
	reg.Counter(pre + "nic/wqe-misses").Set(c.WQEMisses)
	reg.Counter(pre + "nic/mtt-misses").Set(c.MTTMisses)
	reg.Counter(pre + "nic/atomic-ops").Set(c.AtomicOps)
	reg.Counter(pre + "nic/bytes-out").Set(c.BytesOnOut)
	reg.Counter(pre + "nic/bytes-in").Set(c.BytesOnIn)
	reg.Counter(pre + "nic/contexts").Set(uint64(rt.nic.Contexts()))

	// Doorbell registers: the §3.1 contention evidence. Per-register
	// series over a global register index, plus aggregate counters the
	// shape checks consume.
	dbg := group("doorbells",
		"Doorbell register totals (driver spinlock, §3.1)", "register")
	dbg.Def("rings", "", 0)
	dbg.Def("acquisitions", "", 0)
	dbg.Def("contended", "", 0)
	dbg.Def("hold-us", "us", 1)
	var ringsT, acqT, contT, holdT uint64
	idx := 0
	for _, ctx := range rt.ctxs {
		for _, d := range ctx.Doorbells() {
			x := float64(idx)
			dbg.Add("rings", x, float64(d.Rings))
			dbg.Add("acquisitions", x, float64(d.Acquisitions()))
			dbg.Add("contended", x, float64(d.Contended()))
			dbg.Add("hold-us", x, float64(d.HoldTicks)/1000)
			ringsT += d.Rings
			acqT += d.Acquisitions()
			contT += d.Contended()
			holdT += uint64(d.HoldTicks)
			idx++
		}
	}
	reg.Counter(pre + "db/rings-total").Set(ringsT)
	reg.Counter(pre + "db/acquisitions-total").Set(acqT)
	reg.Counter(pre + "db/contended-total").Set(contT)
	reg.Counter(pre + "db/hold-ticks-total").Set(holdT)

	// Submission-path batching counters (DESIGN.md §16): the
	// coalescer's flush-trigger breakdown. Only emitted when a batching
	// technique is configured, so batching-off telemetry documents (and
	// their goldens) stay byte-identical to the pre-batching model.
	if rt.opts.Batching.Enabled() {
		var cs CoalesceStats
		for _, t := range rt.threads {
			s := t.CoalesceStats()
			cs.FlushFull += s.FlushFull
			cs.FlushDeadline += s.FlushDeadline
			cs.FlushSync += s.FlushSync
			cs.Coalesced += s.Coalesced
			cs.Overruns += s.Overruns
		}
		reg.Counter(pre + "batch/flush-full").Set(cs.FlushFull)
		reg.Counter(pre + "batch/flush-deadline").Set(cs.FlushDeadline)
		reg.Counter(pre + "batch/flush-sync").Set(cs.FlushSync)
		reg.Counter(pre + "batch/coalesced-wrs").Set(cs.Coalesced)
		reg.Counter(pre + "batch/deadline-overruns").Set(cs.Overruns)
	}

	// Scheduler baton traffic. The engine is shared by every runtime
	// on it, so these are engine-wide and deliberately unprefixed; Set
	// keeps repeated harvests from double-counting.
	reg.Counter("engine/parks").Set(rt.eng.Parks())
	reg.Counter("engine/wakes").Set(rt.eng.Wakes())

	// Per-thread operation statistics over the thread index.
	tg := group("threads", "Per-thread lifetime statistics", "thread")
	for _, name := range [...]string{"ops", "wrs", "cas-failed", "owr-max"} {
		tg.Def(name, "", 0)
	}
	tg.Def("owr-mean", "", 2)
	if rt.opts.Telemetry != nil { // the threads' latency histograms exist
		tg.Def("lat-p50-us", "us", 1)
		tg.Def("lat-p99-us", "us", 1)
	}
	now := rt.eng.Now()
	for _, t := range rt.threads {
		x := float64(t.ID)
		tg.Add("ops", x, float64(t.Stats.Ops))
		tg.Add("wrs", x, float64(t.Stats.WRs))
		tg.Add("cas-failed", x, float64(t.Stats.CASFailed))
		tg.Add("owr-max", x, float64(t.owrMax))
		if now > 0 {
			t.noteOWR(0) // flush the gauge integral up to now
			tg.Add("owr-mean", x, float64(t.owrArea)/float64(now))
		}
		// Latency percentiles only exist for threads that keep a
		// histogram and completed operations; zero-op threads stay
		// absent rather than reporting a fake 0 latency.
		if t.lat == nil {
			continue
		}
		if s := t.lat.Summary(); s.Count > 0 {
			tg.Add("lat-p50-us", x, float64(s.P50)/1000)
			tg.Add("lat-p99-us", x, float64(s.P99)/1000)
		}
	}

	// WQE postings per unique QP, in thread-major/blade-minor
	// first-seen order. Shared policies alias QPs across threads, so
	// dedup by identity; the map is lookup-only.
	qg := group("qps", "Work requests posted per queue pair", "qp")
	qg.Def("posted", "", 0)
	seen := make(map[*verbs.QP]bool)
	qi := 0
	for _, t := range rt.threads {
		for _, qp := range t.qps {
			if seen[qp] {
				continue
			}
			seen[qp] = true
			qg.Add("posted", float64(qi), float64(qp.Posted))
			qi++
		}
	}

	// Framework totals.
	s := rt.TotalStats()
	reg.Counter(pre + "core/ops").Set(s.Ops)
	reg.Counter(pre + "core/wrs").Set(s.WRs)
	reg.Counter(pre + "core/cas-total").Set(s.CASTotal)
	reg.Counter(pre + "core/cas-failed").Set(s.CASFailed)

	// Fault accounting: what the injector did to the card (rnic
	// counters) and how the framework recovered (thread stats). Only
	// emitted when the fault machinery is in play — an injector
	// installed or recovery engaged — so fault-free telemetry documents
	// (and their goldens) are byte-identical to the pre-fault model.
	if rt.nic.Fault() != nil || rt.opts.WRTimeout > 0 ||
		c.Injected|c.Retransmits|c.Errors != 0 ||
		s.FaultRetries|s.FaultAbandoned|s.FaultTimeouts != 0 {
		reg.Counter(pre + "fault/injected").Set(c.Injected)
		reg.Counter(pre + "fault/retransmits").Set(c.Retransmits)
		reg.Counter(pre + "fault/errors").Set(c.Errors)
		reg.Counter(pre + "fault/retries").Set(s.FaultRetries)
		reg.Counter(pre + "fault/abandoned").Set(s.FaultAbandoned)
		reg.Counter(pre + "fault/timeouts").Set(s.FaultTimeouts)
	}
}
