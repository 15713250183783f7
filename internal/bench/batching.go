package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/result"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/verbs"
)

// The batching ablation (DESIGN.md §16): WR postlist submission and
// doorbell coalescing against the plain per-WR submission path, on the
// most doorbell-contended configuration the model has — per-thread QPs
// round-robined onto the driver's 12 medium-latency doorbells. The
// four modes (off / postlist / coalesce / both) share every other knob,
// so the tables isolate what amortizing the doorbell MMIO buys and how
// it interacts with the §4.2 credit controller.

// batchingFor builds one swept point's batching config: the mode's
// postlist/coalesce bits, the point's coalesce threshold, and the knob
// template's overrides. The template is env.Batching (which -batching
// sets): a batch= or deadline= it names overrides the sweep's value
// for the batched mode variants, and a knob it leaves unset keeps the
// sweep's threshold and the runtime's default deadline (the mode axis
// itself is what the ablation sweeps, so the template's mode bits are
// ignored). The shape checks are calibrated against the zero template.
func batchingFor(knobs, mode verbs.Batching, coalesceBatch int) verbs.Batching {
	b := mode
	if b.Coalesce {
		b.CoalesceBatch = coalesceBatch
		if knobs.CoalesceBatch > 0 {
			b.CoalesceBatch = knobs.CoalesceBatch
		}
		b.FlushDeadline = knobs.FlushDeadline
	}
	return b
}

// batchingModes returns the ablation's mode axis (a func, not a
// package var: runner packages hold no shared mutable state).
func batchingModes() []struct {
	name string
	b    verbs.Batching
} {
	return []struct {
		name string
		b    verbs.Batching
	}{
		{"off", verbs.Batching{}},
		{"postlist", verbs.Batching{Postlist: true}},
		{"coalesce", verbs.Batching{Coalesce: true}},
		{"both", verbs.Batching{Postlist: true, Coalesce: true}},
	}
}

// runBatching runs the four submission modes over the depth and thread
// grids plus the §4.2 C_max coupling panel, with env.Batching's
// overrides applied to the swept modes.
func runBatching(env Env) []result.Table {
	const (
		fixedThreads = 96 // the depth and C_max panels
		fixedBatch   = 16 // the thread and C_max panels' post batch
		// cmaxCoalesceBatch keeps the C_max panel's coalesce threshold
		// inside the §4.2 candidate range.
		cmaxCoalesceBatch = 8
	)
	batches := []int{2, 4, 8, 16, 32}
	if env.Quick {
		batches = []int{4, 16}
	}

	g := newGrid(env)
	depth := g.table("batching-depth",
		fmt.Sprintf("Batching — READ MOPS vs post batch (%d threads, per-thread QP)", fixedThreads), "batch")
	depth.YUnit, depth.Prec = "MOPS", 1
	cont := g.table("batching-contention",
		fmt.Sprintf("Batching — contended doorbell acquisitions per posted WR vs batch (%d threads, per-thread QP)", fixedThreads), "batch")
	cont.Prec = 4
	thr := g.table("batching-threads",
		fmt.Sprintf("Batching — READ MOPS vs threads (batch %d, per-thread QP)", fixedBatch), "threads")
	thr.YUnit, thr.Prec = "MOPS", 1
	cmaxT := g.table("batching-cmax",
		fmt.Sprintf("Batching — adopted C_max under §4.2 throttling (%d threads, per-thread QP)", fixedThreads), "mode")
	cmaxT.Def("cmax-mean", "", 2)
	cmaxT.Def("MOPS", "", 1)
	for _, m := range batchingModes() {
		depth.Def(m.name, "", 1)
		cont.Def(m.name, "", 4)
		thr.Def(m.name, "", 1)
	}

	// Depth sweep + contention fractions: every point harvests into its
	// own probe registry (per-point isolation); the shared tables are
	// written in the merges, on the caller's goroutine, in enumeration
	// order.
	for _, b := range batches {
		for _, m := range batchingModes() {
			probe := telemetry.New()
			opts := core.Baseline(core.PerThreadQP)
			opts.Batching = batchingFor(env.Batching, m.b, b)
			opts.Telemetry = probe
			add(g, fmt.Sprintf("batching/depth/%s/b=%d", m.name, b), 47,
				MicroConfig{Opts: opts, Threads: fixedThreads, Batch: b, Op: rnic.OpRead},
				func(r MicroResult) {
					depth.Add(m.name, float64(b), r.MOPS)
					contended := probe.Value("db/contended-total")
					wrs := probe.Value("core/wrs")
					frac := 0.0
					if wrs > 0 {
						frac = float64(contended) / float64(wrs)
					}
					cont.Add(m.name, float64(b), frac)
				})
		}
	}

	// Thread sweep at a fixed post batch.
	for _, n := range threadGrid(env.Quick) {
		for _, m := range batchingModes() {
			opts := core.Baseline(core.PerThreadQP)
			opts.Batching = batchingFor(env.Batching, m.b, fixedBatch)
			add(g, fmt.Sprintf("batching/threads/%s/thr=%d", m.name, n), 48,
				MicroConfig{Opts: opts, Threads: n, Batch: fixedBatch, Op: rnic.OpRead},
				func(r MicroResult) { thr.Add(m.name, float64(n), r.MOPS) })
		}
	}

	// Controller coupling: the §4.2 tuner sweeps its candidate list
	// during warmup, adopts the best, and holds it through the
	// measurement window; CMaxMean is the adopted grant averaged over
	// threads. The coalesce threshold sits inside the candidate range,
	// so flush-by-full is reachable exactly when the controller grants
	// enough credits, which is the coupling the check pins.
	for i, m := range batchingModes() {
		opts := core.Baseline(core.PerThreadQP)
		opts.WorkReqThrottle = true
		opts.UpdateDelta = 200 * sim.Microsecond
		opts.Batching = batchingFor(env.Batching, m.b, cmaxCoalesceBatch)
		add(g, "batching/cmax/"+m.name, 49,
			MicroConfig{Opts: opts, Threads: fixedThreads, Batch: fixedBatch, Op: rnic.OpRead},
			func(r MicroResult) {
				cmaxT.AddLabeled("cmax-mean", float64(i), m.name, r.CMaxMean)
				cmaxT.AddLabeled("MOPS", float64(i), m.name, r.MOPS)
			})
	}

	return g.run()
}

func init() {
	register(&Experiment{
		ID:       "batching",
		Category: "ablations",
		Title:    "Ablation: WR postlist batching + doorbell coalescing (§3.1 model, DESIGN.md §16)",
		Run:      runBatching,
	})
}
