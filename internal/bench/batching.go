package bench

import "repro/internal/verbs"

// The batching ablation (DESIGN.md §16): WR postlist submission and
// doorbell coalescing against the plain per-WR submission path, on the
// most doorbell-contended configuration the model has — per-thread QPs
// round-robined onto the driver's 12 medium-latency doorbells. The
// four modes (off / postlist / coalesce / both) share every other knob,
// so the tables isolate what amortizing the doorbell MMIO buys and how
// it interacts with the §4.2 credit controller.

// batchingFor builds one swept point's batching config: the mode's
// postlist/coalesce bits, the point's coalesce threshold, and the knob
// template's overrides. The template is the spec's batching field
// (which -batching sets): its batch=/deadline= values override the
// sweep's defaults for the batched mode variants (the mode axis itself
// is what the ablation sweeps, so the template's mode bits are
// ignored). The shape checks are calibrated against the zero template.
func batchingFor(knobs, mode verbs.Batching, coalesceBatch int) verbs.Batching {
	b := mode
	if b.Coalesce {
		b.CoalesceBatch = coalesceBatch
		if knobs.CoalesceBatch > 0 {
			b.CoalesceBatch = knobs.CoalesceBatch
		}
		if knobs.FlushDeadline > 0 {
			b.FlushDeadline = knobs.FlushDeadline
		}
	}
	return b.WithDefaults()
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

func init() {
	register(&Experiment{
		ID:       "batching",
		Category: "ablations",
		Title:    "Ablation: WR postlist batching + doorbell coalescing (§3.1 model, DESIGN.md §16)",
		Spec:     batchingSpec,
	})
}
