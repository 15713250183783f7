package core

import (
	"fmt"

	"repro/internal/result"
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
	credits *sim.Credits
	cmax    int

	// Submission-path batching (DESIGN.md §16): coal buffers postings
	// for doorbell coalescing.
	coal *coalescer

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

	tel *telemetry.Registry // nil when not instrumented
	// Trajectory tables this thread records its column, trajName, into
	// (nil past the cap).
	trajCMax, trajTMax, trajCMaxCoro, trajGamma *result.Table
	trajName                                    string

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
	t.trajName = fmt.Sprintf("t%d", t.ID)
	traj := func(id, title string, prec int) *result.Table {
		g := t.tel.Group(pre+id, title, "time")
		g.XUnit = "us"
		g.Def(t.trajName, "", prec)
		return g
	}
	if o.WorkReqThrottle {
		t.trajCMax = traj("cmax-trajectory", "C_max ceiling per epoch (Algorithm 1)", 0)
		t.trajCMax.Add(t.trajName, 0, float64(t.cmax))
	}
	if o.DynamicLimit {
		t.trajTMax = traj("tmax-trajectory", "Backoff ceiling t_max over time (§4.3)", 2)
		t.trajTMax.YUnit = "us"
		t.trajTMax.Add(t.trajName, 0, float64(t.tmax)/1000)
	}
	if o.CoroThrottle {
		t.trajCMaxCoro = traj("cmax-coro-trajectory", "Coroutine credit ceiling c_max over time (§4.3)", 0)
		t.trajCMaxCoro.Add(t.trajName, 0, float64(t.cmaxCoro))
	}
	if o.DynamicLimit || o.CoroThrottle {
		t.trajGamma = traj("gamma", "Observed CAS retry rate γ per window (§4.3)", 3)
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
		t.coal.send.bind(t, nil, t.coal.flusher)
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
	c.slept = c.backoffWoke
	c.proc = t.rt.eng.Go(name, func(p *sim.Proc) {
		fn(c)
	})
	c.regained = c.proc.Resume
	c.send.bind(t, c, c.proc)
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
			start := t.Stats.WRs
			p.Sleep(o.UpdateDelta)
			if t.rt.stopped {
				return
			}
			if completed := t.Stats.WRs - start; first || completed > bestP {
				best, bestP, first = target, completed, false
			}
		}
		t.updateCMax(best)
		if t.trajCMax != nil {
			t.trajCMax.Add(t.trajName, t.usNow(), float64(best))
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
		if t.trajGamma != nil {
			t.trajGamma.Add(t.trajName, t.usNow(), gamma)
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
		if t.trajTMax != nil && t.tmax != before {
			t.trajTMax.Add(t.trajName, t.usNow(), float64(t.tmax)/1000)
		}
		if t.trajCMaxCoro != nil && t.cmaxCoro != beforeCoro {
			t.trajCMaxCoro.Add(t.trajName, t.usNow(), float64(t.cmaxCoro))
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
