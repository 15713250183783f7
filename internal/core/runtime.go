package core

import (
	"fmt"

	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// Runtime is a SMART instance on one compute blade: it owns the device
// context(s), allocates RDMA resources to threads according to the
// configured policy, and runs the per-thread adaptive mechanisms.
type Runtime struct {
	eng     *sim.Engine
	nic     *rnic.RNIC
	targets []verbs.Target
	opts    Options
	threads []*Thread
	ctxs    []*verbs.Context // device contexts, in creation order
	stopped bool
}

// New builds a runtime for nThreads compute threads talking to the
// given memory blades. All queue pairs are created here, at startup,
// in the order each policy requires.
func New(nic *rnic.RNIC, targets []verbs.Target, nThreads int, opts Options) (*Runtime, error) {
	if nThreads < 1 {
		return nil, fmt.Errorf("core: need at least one thread")
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("core: need at least one memory blade")
	}
	opts.withDefaults()
	rt := &Runtime{eng: nic.Engine(), nic: nic, targets: targets, opts: opts}

	for i := 0; i < nThreads; i++ {
		rt.threads = append(rt.threads, newThread(rt, i))
	}

	// Threads share one CQ and one QP per blade in groups: every thread
	// under SharedQP, multiplexQ threads under MultiplexedQP, one
	// thread otherwise.
	group := 1
	switch opts.Policy {
	case SharedQP:
		group = nThreads
	case MultiplexedQP:
		group = multiplexQ
	case PerThreadQP, PerThreadContext, PerThreadDoorbell:
	default:
		return nil, fmt.Errorf("core: unknown policy %v", opts.Policy)
	}
	// Every policy but PerThreadContext shares one device context. Under
	// PerThreadQP it keeps the driver's default doorbells, and creating
	// each thread's QPs in thread order makes the round-robin mapping
	// share doorbells implicitly (§3.1).
	var ctx *verbs.Context
	if opts.Policy != PerThreadContext {
		ctx = rt.open()
	}
	if opts.Policy == PerThreadDoorbell {
		// SMART's thread-aware allocation raises the shared context's
		// medium-latency doorbell count to the thread count (the
		// MLX5_TOTAL_UUARS tuning plus driver patch); beyond the
		// hardware limit threads share (fn. 4).
		dbs := min(max(nThreads, nic.P.DefaultMediumDBs), nic.P.MaxDoorbells)
		if err := ctx.SetMediumDoorbells(dbs); err != nil {
			return nil, err
		}
	}
	for g := 0; g < nThreads; g += group {
		if opts.Policy == PerThreadContext {
			// A private device context per thread avoids doorbell sharing
			// but multiplies memory registrations (MTT/MPT pressure).
			ctx = rt.open()
		}
		cq, qps := ctx.CreateCQ(), make([]*verbs.QP, len(targets))
		if opts.Policy != PerThreadDoorbell {
			for j, tgt := range targets {
				qps[j] = ctx.CreateQP(cq, tgt)
			}
		}
		for _, t := range rt.threads[g:min(g+group, nThreads)] {
			t.cq, t.qps = cq, qps
		}
	}
	if opts.Policy == PerThreadDoorbell {
		// QPs are created in blade-major rounds so the deterministic
		// round-robin assignment lands every one of thread i's QPs on
		// doorbell i.
		for j, tgt := range targets {
			for _, t := range rt.threads {
				t.qps[j] = ctx.CreateQP(t.cq, tgt)
			}
		}
	}

	for _, t := range rt.threads {
		t.start()
	}
	return rt, nil
}

// open opens a device context on the card and records it for
// Doorbells' walk.
func (rt *Runtime) open() *verbs.Context {
	ctx := verbs.Open(rt.nic)
	rt.ctxs = append(rt.ctxs, ctx)
	return ctx
}

// Doorbells returns the doorbell registers of every device context the
// runtime opened, context by context in open order: the one walk over
// them, which Collect's doorbell rows and totals take too.
func (rt *Runtime) Doorbells() []*verbs.Doorbell {
	var dbs []*verbs.Doorbell
	for _, ctx := range rt.ctxs {
		dbs = append(dbs, ctx.Doorbells()...)
	}
	return dbs
}

// MustNew is New that panics on error, for benchmarks and examples.
func MustNew(nic *rnic.RNIC, targets []verbs.Target, nThreads int, opts Options) *Runtime {
	rt, err := New(nic, targets, nThreads, opts)
	if err != nil {
		panic(err)
	}
	return rt
}

// Engine returns the simulation engine.
func (rt *Runtime) Engine() *sim.Engine { return rt.eng }

// Options returns the runtime's effective options (defaults filled).
func (rt *Runtime) Options() Options { return rt.opts }

// Targets returns the memory blades, in blade order.
func (rt *Runtime) Targets() []verbs.Target { return rt.targets }

// Threads returns the runtime's threads.
func (rt *Runtime) Threads() []*Thread { return rt.threads }

// Thread returns thread i.
func (rt *Runtime) Thread(i int) *Thread { return rt.threads[i] }

// bladeIndex maps a blade ID to its index in targets.
func (rt *Runtime) bladeIndex(bladeID int) int {
	for j, tgt := range rt.targets {
		if tgt.Mem.ID == bladeID {
			return j
		}
	}
	panic(fmt.Sprintf("core: no QP for blade %d", bladeID))
}

// Stop terminates the per-thread housekeeping processes at their next
// tick. Call before stopping the engine.
func (rt *Runtime) Stop() { rt.stopped = true }

// Stopped reports whether Stop was called.
func (rt *Runtime) Stopped() bool { return rt.stopped }

// TotalStats aggregates all threads' lifetime statistics.
func (rt *Runtime) TotalStats() ThreadStats {
	var s ThreadStats
	for _, t := range rt.threads {
		s.Ops += t.Stats.Ops
		s.WRs += t.Stats.WRs
		s.CASTotal += t.Stats.CASTotal
		s.CASFailed += t.Stats.CASFailed
		s.FaultRetries += t.Stats.FaultRetries
		s.FaultAbandoned += t.Stats.FaultAbandoned
		s.FaultTimeouts += t.Stats.FaultTimeouts
	}
	return s
}
