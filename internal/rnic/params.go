// Package rnic models the RDMA network interface card at the level of
// detail the SMART paper analyses: the execution pipeline with a hard
// IOPS ceiling, the WQE cache whose thrashing under excessive
// outstanding work requests causes extra PCIe DMA traffic (§3.2), the
// MTT/MPT cache whose hit rate collapses when many device contexts
// register memory separately (§2.2), and the PCIe/link bandwidth that
// makes large transfers bandwidth-bound rather than IOPS-bound.
//
// Doorbell registers — the third contention point (§3.1) — live in the
// verbs package because their spinlocks belong to the user-mode driver
// library, not the device; the rnic package only defines their count
// per device context.
package rnic

import "repro/internal/sim"

// Params holds every constant of the RNIC cost model. The defaults are
// calibrated against the paper's platform (Mellanox ConnectX-6 with a
// measured ceiling of 110 MOP/s for 8-byte READs, PCIe 3.0 at
// ~128 Gbps): see DESIGN.md §3 for the calibration targets.
type Params struct {
	// --- Execution pipeline (requester side) ---

	// ReadService/WriteService/AtomicService are the per-work-request
	// occupancies of the requester pipeline when posting the request.
	// Together with CQEService they set the IOPS ceiling:
	// 1e9/(ReadService+CQEService) ≈ 110 MOP/s.
	ReadService   sim.Time
	WriteService  sim.Time
	AtomicService sim.Time

	// CQEService is the pipeline occupancy of processing a response and
	// DMA-writing the completion entry.
	CQEService sim.Time

	// --- WQE cache (the §3.2 bottleneck) ---

	// WQECacheEntries is the number of WQE states the on-chip cache
	// holds. When the number of outstanding work requests exceeds it,
	// response processing misses with probability
	// 1 - WQECacheEntries/outstanding and pays the penalties below.
	WQECacheEntries int

	// WQEMissPipe is extra pipeline occupancy per missed completion
	// (the PCIe DMA read stalls the execution unit).
	WQEMissPipe sim.Time

	// WQEMissLatency is extra latency before the completion is
	// delivered (one PCIe round trip to host DRAM).
	WQEMissLatency sim.Time

	// WQEMissDMABytes is the host-DRAM traffic added by the refetch,
	// visible in the Fig. 4b counter.
	WQEMissDMABytes int

	// --- MTT/MPT cache (§2.2, per-thread-context policy in Fig. 13) ---

	// MTTMissProbSingleCtx/MultiCtx are the address-translation miss
	// probabilities with one shared device context (the recommended
	// configuration, >95% hit) versus one context per thread (<70% hit).
	MTTMissProbSingleCtx float64
	MTTMissProbMultiCtx  float64

	// MTTMissPipe and MTTMissLatency are the penalties per translation
	// miss.
	MTTMissPipe    sim.Time
	MTTMissLatency sim.Time

	// --- Responder side ---

	// ResponderService is the per-request occupancy of the target
	// RNIC's inbound pipeline. Higher ceiling than the requester: the
	// responder needs no WQE fetch for one-sided verbs.
	ResponderService sim.Time

	// AtomicUnitService is the additional serialized occupancy of the
	// responder's atomic execution unit (CAS/FAA), which caps the
	// per-blade atomic rate well below the READ rate.
	AtomicUnitService sim.Time

	// NVMReadExtra/NVMWriteExtra are the media latencies added when the
	// target blade is persistent memory (FORD's configuration).
	NVMReadExtra  sim.Time
	NVMWriteExtra sim.Time

	// --- Wire and PCIe ---

	// OneWayLatency is the propagation plus switching delay in each
	// direction. The unloaded 8-byte READ round trip is therefore
	// about 2*OneWayLatency + pipeline services ≈ 3.3 µs, matching the
	// paper's implied loaded-latency behaviour (768 OWRs saturate the
	// 110 MOP/s pipeline).
	OneWayLatency sim.Time

	// LinkBytesPerNS is the PCIe/NIC bandwidth in bytes per nanosecond
	// (16 B/ns = 128 Gbps, the PCIe 3.0 ceiling the paper reports).
	LinkBytesPerNS float64

	// HeaderBytes models per-message transport headers on the wire.
	HeaderBytes int

	// --- Host DMA accounting (Fig. 4b) ---

	// BaseDMABytes is the per-WR host-DRAM traffic when nothing misses
	// (WQE fetch + CQE write + doorbell dregs). The paper measures
	// ~93 B/WR for 8-byte READs at 96×8; 85 + payload reproduces it.
	BaseDMABytes int

	// --- Doorbells (counts only; behaviour lives in verbs) ---

	// DefaultMediumDBs is the per-context count of medium-latency
	// doorbell registers in the unmodified driver (§2.2: 4 low-latency
	// + 12 medium). QPs are bound to the medium ones only (see
	// verbs.Context), so the 4 low-latency ones are not modelled.
	// MaxDoorbells is the hardware limit reached with the patched
	// driver (512 for ConnectX-6).
	DefaultMediumDBs int
	MaxDoorbells     int

	// DBHold is the time the doorbell spinlock is held per posted work
	// request (WQE write + MMIO), and DBBouncePerWaiter the extra hold
	// per queued waiter from cache-line bouncing between the spinning
	// cores. These two produce Fig. 3's collapse of per-thread QP
	// beyond 32 threads.
	DBHold            sim.Time
	DBBouncePerWaiter sim.Time

	// DBChainedHold is the incremental spinlock hold per additional
	// work request in a chained (postlist) doorbell update: the extra
	// WQE write under the lock, without the per-WR MMIO the chain
	// amortizes away. Only a chain of two or more (verbs PostList)
	// pays it.
	DBChainedHold sim.Time

	// QPLockHold and QPBouncePerWaiter model the userspace QP lock that
	// serializes threads sharing a queue pair (shared/multiplexed
	// policies).
	QPLockHold        sim.Time
	QPBouncePerWaiter sim.Time

	// QPChainedHold is the incremental QP-lock hold per additional work
	// request in a postlist chain (send-queue bookkeeping per WR; the
	// lock itself is taken once per chain).
	QPChainedHold sim.Time

	// --- Transport recovery (only exercised under fault injection) ---

	// RetransmitTimeout is the transport's retransmission timer: a
	// dropped request packet is resent after this long. Real RC QPs
	// derive it from ibv_qp_attr.timeout (4.096us * 2^timeout); the
	// model uses a flat value.
	RetransmitTimeout sim.Time

	// MaxRetransmits caps transport retries (ibv_qp_attr.retry_cnt).
	// An op whose packets are dropped more times than this completes
	// with StatusRetryExceeded; a blackholed op's send-queue slot is
	// silently reclaimed after the same budget elapses.
	MaxRetransmits int
}

// Default returns the calibrated parameter set used by every benchmark
// unless a test overrides specific fields.
func Default() Params {
	return Params{
		ReadService:   7,
		WriteService:  8,
		AtomicService: 8,
		CQEService:    2,

		WQECacheEntries: 1024,
		WQEMissPipe:     13,
		WQEMissLatency:  600,
		WQEMissDMABytes: 130,

		MTTMissProbSingleCtx: 0.03,
		MTTMissProbMultiCtx:  0.30,
		MTTMissPipe:          25,
		MTTMissLatency:       300,

		ResponderService:  6,
		AtomicUnitService: 16,
		NVMReadExtra:      100,
		NVMWriteExtra:     300,

		OneWayLatency:  1600,
		LinkBytesPerNS: 16.0,
		HeaderBytes:    30,

		BaseDMABytes: 85,

		DefaultMediumDBs: 12,
		MaxDoorbells:     512,

		DBHold:            110,
		DBBouncePerWaiter: 60,
		DBChainedHold:     20,

		QPLockHold:        50,
		QPBouncePerWaiter: 10,
		QPChainedHold:     10,

		RetransmitTimeout: 20 * sim.Microsecond,
		MaxRetransmits:    4,
	}
}
