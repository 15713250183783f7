package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/verbs"
)

// telTrajectoryThreads caps how many threads record per-thread
// controller trajectories: enough to see divergence between threads
// without bloating the telemetry document at 96 threads.
const telTrajectoryThreads = 8

// ThreadStats are lifetime counters a thread accumulates.
type ThreadStats struct {
	Ops       uint64 // application operations (BeginOp/EndOp brackets)
	WRs       uint64 // completed work requests
	CASTotal  uint64 // CAS attempts through BackoffCASSync/CASSync
	CASFailed uint64 // unsuccessful CAS attempts (retries)

	// Fault recovery (zero in a fault-free run).
	FaultRetries   uint64 // WRs transparently reposted by Sync after an error
	FaultAbandoned uint64 // WRs given up after the retry budget
	FaultTimeouts  uint64 // watchdog-expired WRs (StatusTimeout)
}

// Thread owns one compute thread's RDMA resources — its QPs (one per
// memory blade), completion queue, credits, and conflict-avoidance
// state — and hosts the coroutines the application spawns on it. Both
// adaptive mechanisms keep their state thread-local, as in the paper.
type Thread struct {
	rt  *Runtime
	ID  int
	qps []*verbs.QP
	cq  *verbs.CQ

	// Work request throttling (§4.2).
	credits     *sim.Credits
	cmax        int
	wrCompleted uint64 // monotone counter the epoch tuner samples

	// Submission-path batching (DESIGN.md §16). coal buffers postings
	// for doorbell coalescing; pollOwner, under shared-CQ polling, maps
	// each in-flight WR to the context that posted it so the thread's
	// polling loop can dispatch completions (inserted at post, deleted
	// at dispatch, never ranged — map order can never leak).
	coal      *coalescer
	pollOwner map[*verbs.WR]*Ctx

	// Conflict avoidance (§4.3). γ is "the percentage of retries for
	// all operations": unsuccessful CAS attempts over completed
	// operations in the window, so read-mostly workloads are not
	// throttled by a handful of contended writers.
	coroCredits *sim.Credits
	cmaxCoro    int
	tmax        sim.Time
	winOps      uint64 // operations completed in the current γ window
	winRetries  uint64 // unsuccessful CAS attempts in the window

	// Telemetry (software Neo-Host). lat is always allocated — it is
	// cheap and lets the zero-op edge case export a well-defined empty
	// summary. The outstanding-WR gauge integrates occupancy over time
	// (owrArea, in WR·ns) so Collect can report the mean OWR depth.
	lat     *stats.Hist
	owr     int      // outstanding WRs right now
	owrMax  int      // high-water mark
	owrAt   sim.Time // last time owr changed
	owrArea int64    // ∫ owr dt, WR·ns

	tel                             *telemetry.Registry // nil when not instrumented
	sCMax, sTMax, sCMaxCoro, sGamma *telemetry.Series   // trajectory series (nil past the cap)

	Stats ThreadStats
}

func newThread(rt *Runtime, id int) *Thread {
	t := &Thread{rt: rt, ID: id, lat: stats.NewHist()}
	o := &rt.opts
	if o.WorkReqThrottle {
		t.cmax = initialCMax
		t.credits = sim.NewCredits(rt.eng, initialCMax)
	}
	if o.CoroThrottle {
		t.cmaxCoro = o.Depth
		t.coroCredits = sim.NewCredits(rt.eng, int64(o.Depth))
	}
	if o.DynamicLimit {
		t.tmax = o.BackoffUnit
	} else {
		// Plain truncated backoff without the dynamic limit pins the
		// ceiling at t_M: collisions stay rare, but operations
		// oversleep under light contention — the performance the
		// dynamic limit recovers (§4.3: "a larger one also leads to
		// lower performance").
		t.tmax = o.backoffMax()
	}
	t.tel = o.Telemetry
	if t.tel != nil && id < telTrajectoryThreads {
		t.initTrajectories()
	}
	return t
}

// initTrajectories registers this thread's controller trajectory
// series and records each knob's initial value at virtual time zero,
// so the §4.2/§4.3 tables are never empty even when a controller
// holds steady for the whole run.
func (t *Thread) initTrajectories() {
	o := &t.rt.opts
	pre := o.TelemetryPrefix
	name := fmt.Sprintf("t%d", t.ID)
	if o.WorkReqThrottle {
		g := t.tel.Group(pre+"cmax-trajectory",
			"C_max ceiling per epoch (Algorithm 1)", "time")
		g.XUnit = "us"
		t.sCMax = g.Series(name)
		t.sCMax.Record(0, float64(t.cmax))
	}
	if o.DynamicLimit {
		g := t.tel.Group(pre+"tmax-trajectory",
			"Backoff ceiling t_max over time (§4.3)", "time")
		g.XUnit, g.YUnit = "us", "us"
		t.sTMax = g.SeriesDef(name, "", 2)
		t.sTMax.Record(0, float64(t.tmax)/1000)
	}
	if o.CoroThrottle {
		g := t.tel.Group(pre+"cmax-coro-trajectory",
			"Coroutine credit ceiling c_max over time (§4.3)", "time")
		g.XUnit = "us"
		t.sCMaxCoro = g.Series(name)
		t.sCMaxCoro.Record(0, float64(t.cmaxCoro))
	}
	if o.DynamicLimit || o.CoroThrottle {
		g := t.tel.Group(pre+"gamma",
			"Observed CAS retry rate γ per window (§4.3)", "time")
		g.XUnit = "us"
		t.sGamma = g.SeriesDef(name, "", 3)
	}
}

// usNow returns the current virtual time in microseconds, the shared x
// axis of the trajectory series.
func (t *Thread) usNow() float64 { return float64(t.rt.eng.Now()) / 1000 }

// start launches the thread's housekeeping processes.
func (t *Thread) start() {
	o := &t.rt.opts
	if o.WorkReqThrottle {
		t.rt.eng.Go(fmt.Sprintf("t%d-cmax-tuner", t.ID), t.cmaxTuner)
	}
	if o.DynamicLimit || o.CoroThrottle {
		t.rt.eng.Go(fmt.Sprintf("t%d-retry-ticker", t.ID), t.retryTicker)
	}
	if o.Batching.Coalesce {
		t.coal = newCoalescer(t)
		t.coal.flusher = t.rt.eng.Go(fmt.Sprintf("t%d-coal-flusher", t.ID), t.coal.run)
	}
	if o.Batching.SharedCQPoll {
		t.pollOwner = make(map[*verbs.WR]*Ctx)
		t.rt.eng.Go(fmt.Sprintf("t%d-cq-poller", t.ID), t.poller)
	}
}

// poller is the shared-CQ polling strategy: one loop per thread
// draining the thread's CQ and dispatching each completion to the
// posting context, instead of per-completion OnComplete callbacks.
// Completions (including watchdog Expires) buffer as CQEs until this
// loop runs; stale attempts are dropped by the CQ's guard before ever
// reaching it. Unwound by Engine.Stop while parked in WaitAny.
func (t *Thread) poller(p *sim.Proc) {
	for {
		ents := t.cq.WaitAny(p)
		if t.rt.stopped {
			return
		}
		for i := range ents {
			wr := ents[i].WR
			c := t.pollOwner[wr]
			delete(t.pollOwner, wr)
			c.onComplete(wr)
		}
		t.cq.Recycle(ents)
	}
}

// submit is the one place the framework hands work requests to a QP
// (DESIGN.md §16): a same-QP run posts as one linked chain under
// postlist batching and one WR at a time otherwise. Only after the
// whole run is posted does each WR enter the outstanding-WR gauge and,
// when configured, arm its watchdog — against the attempt the post just
// launched, which is why the coalescer submits at flush time rather
// than post time.
func (t *Thread) submit(p *sim.Proc, qp *verbs.QP, wrs []*verbs.WR) {
	if t.rt.opts.Batching.Postlist {
		qp.PostList(p, wrs...)
	} else {
		qp.PostSend(p, wrs...)
	}
	for _, wr := range wrs {
		t.noteOWR(1)
		if d := t.rt.opts.WRTimeout; d > 0 {
			cq, attempt := qp.CQ(), wr.Attempt()
			t.rt.eng.Schedule(d, func() { cq.Expire(wr, attempt) })
		}
	}
}

// CMax returns the current work-request credit ceiling (0 when
// throttling is off).
func (t *Thread) CMax() int { return t.cmax }

// TMax returns the current backoff ceiling.
func (t *Thread) TMax() sim.Time { return t.tmax }

// CMaxCoro returns the current coroutine credit ceiling (0 when
// coroutine throttling is off).
func (t *Thread) CMaxCoro() int { return t.cmaxCoro }

// QP returns the thread's queue pair for the given blade ID.
func (t *Thread) QP(bladeID int) *verbs.QP { return t.qps[t.rt.bladeIndex(bladeID)] }

// qpFor returns the thread's queue pair for the WR's target blade.
func (t *Thread) qpFor(wr *verbs.WR) *verbs.QP { return t.QP(wr.Remote.Blade) }

// Spawn starts a coroutine on this thread and returns its context.
// All of a thread's coroutines share its QPs, CQ, and doorbell.
func (t *Thread) Spawn(name string, fn func(c *Ctx)) *Ctx {
	c := &Ctx{T: t}
	c.onDone = c.onComplete // one method value for every WR the coroutine posts
	c.proc = t.rt.eng.Go(name, func(p *sim.Proc) {
		fn(c)
	})
	return c
}

// updateCMax implements Algorithm 1's UPDATECMAX: move the ceiling to
// target, shifting the live credit balance by the difference.
func (t *Thread) updateCMax(target int) {
	t.credits.Add(int64(target - t.cmax))
	t.cmax = target
}

// cmaxTuner is Algorithm 1's UPDATE loop: each epoch, measure the
// completed-WR throughput under every candidate C_max for Δ, adopt the
// best, then hold it for the stable phase (stableEpochs·Δ).
func (t *Thread) cmaxTuner(p *sim.Proc) {
	o := &t.rt.opts
	for !t.rt.stopped {
		best, bestP := t.cmax, uint64(0)
		first := true
		for _, target := range [...]int{4, 6, 8, 10, 12} { // Algorithm 1's target_list
			t.updateCMax(target)
			start := t.wrCompleted
			p.Sleep(o.UpdateDelta)
			if t.rt.stopped {
				return
			}
			if completed := t.wrCompleted - start; first || completed > bestP {
				best, bestP, first = target, completed, false
			}
		}
		t.updateCMax(best)
		if t.sCMax != nil {
			t.sCMax.Record(t.usNow(), float64(best))
		}
		if t.tel.Tracing() {
			t.tel.Emit(t.rt.eng.Now(), "cmax-adopt",
				fmt.Sprintf("t%d C_max=%d (best epoch throughput %d WRs)", t.ID, best, bestP))
		}
		p.Sleep(stableEpochs * o.UpdateDelta)
	}
}

// retryTicker samples the retry rate γ every RetryWindow and adjusts
// the conflict-avoidance knobs: first the coroutine depth c_max, and —
// only once c_max is pinned at a bound — the backoff ceiling t_max.
func (t *Thread) retryTicker(p *sim.Proc) {
	o := &t.rt.opts
	for !t.rt.stopped {
		p.Sleep(o.RetryWindow)
		ops, retries := t.winOps, t.winRetries
		t.winOps, t.winRetries = 0, 0
		if ops == 0 {
			continue
		}
		gamma := float64(retries) / float64(ops)
		if t.sGamma != nil {
			t.sGamma.Record(t.usNow(), gamma)
		}
		if t.tel.Tracing() {
			t.tel.Emit(t.rt.eng.Now(), "gamma-sample",
				fmt.Sprintf("t%d gamma=%.3f (%d retries / %d ops)", t.ID, gamma, retries, ops))
		}
		before, beforeCoro := t.tmax, t.cmaxCoro
		switch {
		case gamma > o.GammaHigh:
			if o.CoroThrottle && t.cmaxCoro > 1 {
				t.setCMaxCoro(t.cmaxCoro / 2)
			} else if tM := o.backoffMax(); o.DynamicLimit && t.tmax < tM {
				t.tmax = min(2*t.tmax, tM)
			}
		case gamma < o.GammaLow:
			if o.CoroThrottle && t.cmaxCoro < o.Depth {
				t.setCMaxCoro(t.cmaxCoro * 2)
			} else if o.DynamicLimit && t.tmax > o.BackoffUnit {
				t.tmax /= 2
				if t.tmax < o.BackoffUnit {
					t.tmax = o.BackoffUnit
				}
			}
		}
		if t.sTMax != nil && t.tmax != before {
			t.sTMax.Record(t.usNow(), float64(t.tmax)/1000)
		}
		if t.sCMaxCoro != nil && t.cmaxCoro != beforeCoro {
			t.sCMaxCoro.Record(t.usNow(), float64(t.cmaxCoro))
		}
	}
}

// noteOWR adjusts the outstanding-WR gauge, integrating the previous
// level over the time it held. Runs in engine context (PostSend and
// completion callbacks), so the thread's coroutines never race on it.
func (t *Thread) noteOWR(delta int) {
	now := t.rt.eng.Now()
	t.owrArea += int64(t.owr) * int64(now-t.owrAt)
	t.owrAt = now
	t.owr += delta
	if t.owr > t.owrMax {
		t.owrMax = t.owr
	}
}

// LatHist returns the thread's per-operation latency histogram.
func (t *Thread) LatHist() *stats.Hist { return t.lat }

// OWRMax returns the high-water mark of outstanding work requests.
func (t *Thread) OWRMax() int { return t.owrMax }

func (t *Thread) setCMaxCoro(n int) {
	if n < 1 {
		n = 1
	}
	if max := t.rt.opts.Depth; n > max {
		n = max
	}
	t.coroCredits.Add(int64(n - t.cmaxCoro))
	t.cmaxCoro = n
}
