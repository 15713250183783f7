// Package core implements SMART, the paper's contribution: an RDMA
// programming framework that scales IOPS-bound disaggregated
// applications up to large thread counts by hiding three low-level
// techniques behind a verbs-like coroutine API:
//
//  1. Thread-aware resource allocation (§4.1) — every thread gets its
//     own queue pairs, completion queue, and doorbell register, while
//     the device context, protection domain, and memory regions stay
//     shared. The framework exploits the driver's deterministic
//     round-robin QP→doorbell mapping by ordering QP creation.
//  2. Adaptive work request throttling (§4.2) — credit-based limiting
//     of outstanding work requests per thread (Algorithm 1), with the
//     ceiling C_max re-tuned every epoch from measured completions.
//  3. Conflict avoidance (§4.3) — truncated randomized exponential
//     backoff for failed CAS with a dynamic ceiling t_max, plus
//     credit-based coroutine-depth throttling c_max, both driven by
//     the observed retry rate.
//
// The same Runtime also implements the baseline QP-allocation policies
// the paper compares against (shared QP, multiplexed QP, per-thread
// QP, per-thread device context), so every figure's contenders share
// one code path and differ only in Options.
package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/verbs"
)

// Policy selects how queue pairs (and implicitly doorbell registers)
// are allocated to threads — the four §3.1 contenders plus the
// per-thread device-context variant from Fig. 13.
type Policy int

const (
	// SharedQP gives all threads a single QP per memory blade.
	SharedQP Policy = iota
	// MultiplexedQP shares each QP among multiplexQ threads
	// (FaRM/LITE-style connection multiplexing).
	MultiplexedQP
	// PerThreadQP gives each thread its own QPs but leaves the driver's
	// default doorbell mapping, so threads implicitly share the 12
	// medium-latency doorbells.
	PerThreadQP
	// PerThreadContext opens a device context per thread (X-RDMA
	// style): private doorbells, but MTT/MPT cache thrashing from
	// per-context memory registration.
	PerThreadContext
	// PerThreadDoorbell is SMART's thread-aware allocation: shared
	// context, private QPs, CQ, and doorbell per thread.
	PerThreadDoorbell
)

func (p Policy) String() string {
	switch p {
	case SharedQP:
		return "shared-qp"
	case MultiplexedQP:
		return "multiplexed-qp"
	case PerThreadQP:
		return "per-thread-qp"
	case PerThreadContext:
		return "per-thread-context"
	case PerThreadDoorbell:
		return "per-thread-doorbell"
	}
	return "?"
}

// ParsePolicy is the inverse of Policy.String: it resolves a policy's
// canonical name, for the spec files and CLI flags that carry one.
func ParsePolicy(name string) (Policy, error) {
	for _, p := range []Policy{SharedQP, MultiplexedQP, PerThreadQP, PerThreadContext, PerThreadDoorbell} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (want shared-qp, multiplexed-qp, per-thread-qp, per-thread-context, or per-thread-doorbell)", name)
}

// The framework constants no caller varies.
const (
	multiplexQ   = 4  // threads per QP under MultiplexedQP
	initialCMax  = 8  // C_max before Algorithm 1's first epoch
	stableEpochs = 60 // Algorithm 1's stable phase, in units of Δ
)

// Options configures a Runtime. The zero value is a plain per-thread-QP
// baseline; use Smart for the full framework.
type Options struct {
	Policy Policy

	// Depth is the number of coroutines spawned per thread by the
	// applications (the concurrency depth). Default 8, as in §6.1.
	Depth int

	// --- Adaptive work request throttling (§4.2) ---

	// WorkReqThrottle gates each thread's WR credits at C_max, which
	// starts at 8 and is moved by Algorithm 1's epoch tuner.
	WorkReqThrottle bool
	UpdateDelta     sim.Time // Δ, the per-candidate measuring window

	// --- Conflict avoidance (§4.3) ---

	Backoff      bool     // truncated exponential backoff on CAS failure
	DynamicLimit bool     // adapt t_max from the retry rate
	CoroThrottle bool     // adapt the coroutine credit ceiling c_max
	BackoffUnit  sim.Time // t0 (default ≈ one RDMA round trip)
	RetryWindow  sim.Time // γ sampling period (default 1 ms)
	GammaHigh    float64  // γ_H (default 0.5)
	GammaLow     float64  // γ_L (default 0.1)

	// --- Submission-path batching (DESIGN.md §16) ---

	// Batching configures WR postlist submission and per-thread
	// doorbell coalescing. The zero value (off) keeps the submission
	// path byte-identical to the pre-batching model.
	Batching verbs.Batching

	// --- Fault recovery (only matters when faults are injected) ---

	// WRTimeout, when positive, arms a software watchdog per posted
	// work request: if no completion of any kind arrives within the
	// timeout (a blackholed op), the WR completes with StatusTimeout.
	// Zero (the default) disables the watchdog — the pre-fault model.
	WRTimeout sim.Time

	// MaxWRRetries bounds how many rounds Sync transparently reposts
	// work requests that completed with an error. Zero (the default)
	// never reposts: errors surface immediately as abandoned WRs.
	MaxWRRetries int

	// --- Telemetry (software Neo-Host) ---

	// Telemetry, when set, receives live controller trajectories
	// (C_max, t_max, c_max, γ per thread) and trace events as the run
	// executes, and is the registry Runtime.Collect harvests layer
	// counters into afterwards. nil disables all instrumentation.
	Telemetry *telemetry.Registry

	// TelemetryPrefix namespaces this runtime's counter and group names
	// (e.g. "b0/") when several runtimes share one registry, as the
	// hash-table experiments' multi-blade setups do.
	TelemetryPrefix string
}

// Baseline returns options for a pure QP-allocation baseline with all
// SMART techniques disabled.
func Baseline(p Policy) Options { return Options{Policy: p} }

// Smart returns the full framework configuration: thread-aware
// allocation plus both adaptive mechanisms.
func Smart() Options {
	return Options{
		Policy:          PerThreadDoorbell,
		WorkReqThrottle: true,
		Backoff:         true,
		DynamicLimit:    true,
		CoroThrottle:    true,
	}
}

// withDefaults fills unset fields in place.
func (o *Options) withDefaults() {
	if o.Depth <= 0 {
		o.Depth = 8
	}
	if o.UpdateDelta <= 0 {
		o.UpdateDelta = 8 * sim.Millisecond
	}
	if o.BackoffUnit <= 0 {
		// t0 = 4096 CPU cycles in the paper, "close to the time of an
		// RDMA roundtrip"; our simulated round trip is ≈3.3 µs.
		o.BackoffUnit = 3300
	}
	if o.RetryWindow <= 0 {
		o.RetryWindow = sim.Millisecond
	}
	if o.GammaHigh <= 0 {
		o.GammaHigh = 0.5
	}
	if o.GammaLow <= 0 {
		o.GammaLow = 0.1
	}
	o.Batching = o.Batching.WithDefaults()
}

// backoffMax is t_M, the largest allowed t_max: 1024·t0.
func (o *Options) backoffMax() sim.Time { return 1024 * o.BackoffUnit }
