package rnic

import (
	"math/rand"

	"repro/internal/blade"
	"repro/internal/sim"
)

// OpKind enumerates the one-sided verbs the model transports.
type OpKind int

const (
	OpRead OpKind = iota
	OpWrite
	OpCAS
	OpFAA
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpCAS:
		return "CAS"
	case OpFAA:
		return "FAA"
	}
	return "?"
}

// Status is the completion status of a work request, mirroring the
// ibverbs wc_status values the model needs. The zero value is success,
// so existing code that never inspects it keeps its behaviour.
type Status uint8

const (
	// StatusSuccess is a normal completion.
	StatusSuccess Status = iota
	// StatusRemoteAccessErr models IBV_WC_REM_ACCESS_ERR: the responder
	// NAKed the request and no memory side effect happened.
	StatusRemoteAccessErr
	// StatusRetryExceeded models IBV_WC_RETRY_EXC_ERR: the transport
	// retransmitted the packet MaxRetransmits times without an ACK and
	// gave up.
	StatusRetryExceeded
	// StatusTimeout is the software-level verdict of internal/core's
	// per-WR watchdog: no completion of any kind arrived in time. The
	// card never reports it itself.
	StatusTimeout
)

func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "success"
	case StatusRemoteAccessErr:
		return "remote-access-error"
	case StatusRetryExceeded:
		return "retry-exceeded"
	case StatusTimeout:
		return "timeout"
	}
	return "?"
}

// Op is one work request in flight. The verbs layer fills in the
// callbacks: Exec applies the memory side effect at the responder at
// its execution time (keeping blade memory linearized in virtual
// time), and Complete delivers the completion entry at the requester.
// Status is filled in by the card: ops that fail skip Exec entirely
// (an erroring responder applies no memory side effect) and complete
// with the error carried to the CQE.
type Op struct {
	Kind    OpKind
	Payload int // payload bytes (read/write length; 8 for atomics)
	Status  Status

	Exec     func()
	Complete func()
}

// Action is what a fault verdict does to a submitted op.
type Action uint8

const (
	// ActNone lets the op proceed untouched.
	ActNone Action = iota
	// ActFail NAKs the op at the responder: the request pays the full
	// path out, the responder applies no memory side effect, and the
	// NAK returns as an error-status completion.
	ActFail
	// ActDelay stretches the op's wire latency by a multiplier
	// (degraded link).
	ActDelay
	// ActDrop loses the request packet Drops times; the transport
	// retransmits after RetransmitTimeout each time, or gives up with
	// StatusRetryExceeded once Drops exceeds MaxRetransmits.
	ActDrop
	// ActBlackhole swallows the op: no completion is ever delivered
	// (the send-queue slot is silently reclaimed once the transport's
	// retry budget elapses). Only a software watchdog (internal/core's
	// WRTimeout) recovers.
	ActBlackhole
)

// Verdict is an Injector's decision for one op.
type Verdict struct {
	Action Action
	Status Status  // for ActFail: the error to report
	Factor float64 // for ActDelay: one-way latency multiplier (>= 1)
	Drops  int     // for ActDrop: lost transmissions (>= 1)
}

// Injector decides, per submitted op, whether and how to perturb it.
// Decide runs in engine context at submit time; implementations must
// draw randomness only from the supplied seeded rng (and only when a
// rule actually covers the op, so fault-free phases consume no draws
// and stay byte-identical to a run with no injector at all).
type Injector interface {
	Decide(kind OpKind, now sim.Time, rng *rand.Rand) Verdict
}

// Counters accumulates observable totals, mirroring what Neo-Host and
// the bench tool report on real hardware.
type Counters struct {
	Completed  uint64 // work requests completed
	DMABytes   uint64 // host-DRAM traffic (Fig. 4b's metric)
	WQEMisses  uint64
	MTTMisses  uint64
	AtomicOps  uint64
	BytesOnOut uint64
	BytesOnIn  uint64

	// ByKind splits Completed by verb, indexed by OpKind
	// (READ/WRITE/CAS/FAA) — the per-verb view Neo-Host exposes as
	// rx/tx verb counters.
	ByKind [4]uint64

	// --- Fault accounting (zero unless an Injector is installed) ---

	Injected    uint64 // ops a fault verdict perturbed (any action)
	Retransmits uint64 // transport-level retransmissions (ActDrop)
	Errors      uint64 // completions delivered with a non-success status
}

// RNIC models one network card: the requester pipeline of its host
// when posting verbs, and the responder pipeline when remote cards
// target its host's memory.
type RNIC struct {
	Name string
	P    Params

	eng        *sim.Engine
	reqPipe    *sim.Server
	respPipe   *sim.Server
	atomicUnit *sim.Server
	linkOut    *sim.Server
	linkIn     *sim.Server
	wire       *sim.Line // one-way hop of P.OneWayLatency, either direction

	outstanding int // posted but not yet completed WRs (WQE cache load)
	contexts    int // open device contexts (MTT/MPT pressure)

	fault Injector // nil = every op succeeds (the pre-fault model)

	flights []*flight // recycled in-flight path state (see flight)

	C Counters
}

// flight is one op's trip through the card pipelines: the per-op state
// every stage of the path needs. Flights are pooled per requester card,
// so a posted op allocates nothing here. A flight's stages form a chain
// with exactly one pending callback at a time, so one callback, fnStep,
// bound at creation, serves them all: a stage hands off with
// f.then((*flight).nextStage), whose method expression allocates nothing.
//
// A flight is recycled at its terminal stage: deliver, for both
// successful and error completions (failAfter funnels into the same
// completion stages). Blackholed ops never reach a terminal stage and
// never take a flight — that path keeps its closures and leaves the
// cleanup to the garbage collector, faults being far too rare to pool
// for.
type flight struct {
	r          *RNIC // requester: pipelines on the way out and back, counters, pool
	op         *Op
	target     *RNIC // responder card
	targetKind blade.Kind

	outBytes, inBytes int
	owl               sim.Time // one-way latency, including any injected delay factor
	extraLat          sim.Time // extra outbound latency (MTT miss, retransmits)
	mediaLat          sim.Time // responder media penalty (NVM)
	missLat           sim.Time // WQE cache miss latency at completion
	dma               int      // host-DRAM bytes charged at delivery
	failStatus        Status   // failAfter: error to report
	failWait          sim.Time // failAfter: NAK round trip / retry budget

	next   func(*flight) // the stage fnStep runs
	fnStep func()        // f.step, bound once
}

// newFlight returns a pooled (or freshly bound) flight for one op.
func (r *RNIC) newFlight() *flight {
	if n := len(r.flights); n > 0 {
		f := r.flights[n-1]
		r.flights[n-1] = nil
		r.flights = r.flights[:n-1]
		return f
	}
	f := &flight{r: r}
	f.fnStep = f.step
	return f
}

// then makes next the flight's pending stage and returns the callback
// that runs it.
func (f *flight) then(next func(*flight)) func() {
	f.next = next
	return f.fnStep
}

func (f *flight) step() { f.next(f) }

// New returns an RNIC bound to the engine with the given parameters.
func New(eng *sim.Engine, name string, p Params) *RNIC {
	return &RNIC{
		Name:       name,
		P:          p,
		eng:        eng,
		reqPipe:    sim.NewServer(eng),
		respPipe:   sim.NewServer(eng),
		atomicUnit: sim.NewServer(eng),
		linkOut:    sim.NewServer(eng),
		linkIn:     sim.NewServer(eng),
		wire:       sim.NewLine(eng, p.OneWayLatency),
	}
}

// Engine returns the simulation engine the card runs on.
func (r *RNIC) Engine() *sim.Engine { return r.eng }

// SetFault installs (or, with nil, removes) the card's fault injector.
// With no injector the card is byte-for-byte the fault-free model: the
// fault path draws no randomness and schedules no events.
func (r *RNIC) SetFault(f Injector) { r.fault = f }

// Fault returns the installed injector, nil when fault-free.
func (r *RNIC) Fault() Injector { return r.fault }

// Outstanding returns the number of in-flight work requests.
func (r *RNIC) Outstanding() int { return r.outstanding }

// AddContext registers an additional open device context. The first
// context is free; more than one degrades the MTT/MPT hit rate because
// each context registers its memory regions separately.
func (r *RNIC) AddContext() { r.contexts++ }

// Contexts returns the number of open device contexts.
func (r *RNIC) Contexts() int { return r.contexts }

// linkTime converts a byte count to link occupancy.
func (r *RNIC) linkTime(bytes int) sim.Time {
	return sim.Time(float64(bytes)/r.P.LinkBytesPerNS + 0.5)
}

// wireBytes returns (request, response) wire sizes for an op.
func wireBytes(p Params, op *Op) (out, in int) {
	switch op.Kind {
	case OpRead:
		return p.HeaderBytes, p.HeaderBytes + op.Payload
	case OpWrite:
		return p.HeaderBytes + op.Payload, p.HeaderBytes
	case OpCAS:
		return p.HeaderBytes + 16, p.HeaderBytes + 8
	default: // FAA
		return p.HeaderBytes + 8, p.HeaderBytes + 8
	}
}

// Submit launches op from this (requester) card toward the target
// card, whose host memory is of the given kind. The full path is
// simulated: requester pipeline → outbound link → wire → responder
// pipeline (+ atomic unit) → execution → wire → completion processing
// (incl. WQE cache lookup) → CQE delivery.
func (r *RNIC) Submit(op *Op, target *RNIC, targetKind blade.Kind) {
	p := &r.P
	r.outstanding++

	service := p.ReadService
	switch op.Kind {
	case OpWrite:
		service = p.WriteService
	case OpCAS, OpFAA:
		service = p.AtomicService
	}

	// Address translation: with multiple device contexts, the MTT/MPT
	// cache thrashes and some requests pay a host-memory fetch.
	extraLat := sim.Time(0)
	missProb := p.MTTMissProbSingleCtx
	if r.contexts > 1 {
		missProb = p.MTTMissProbMultiCtx
	}
	if r.eng.Rand().Float64() < missProb {
		r.C.MTTMisses++
		service += p.MTTMissPipe
		extraLat += p.MTTMissLatency
		r.C.DMABytes += 64
	}

	outBytes, inBytes := wireBytes(*p, op)
	r.C.BytesOnOut += uint64(outBytes)
	r.C.BytesOnIn += uint64(inBytes)

	// Fault injection happens at submit time, after the cost model's
	// own randomness, so a fault-free window draws nothing extra and
	// schedules the exact event sequence of an uninjected run.
	owl := p.OneWayLatency
	if r.fault != nil {
		switch v := r.fault.Decide(op.Kind, r.eng.Now(), r.eng.Rand()); v.Action {
		case ActNone:
		case ActFail:
			r.C.Injected++
			st := v.Status
			if st == StatusSuccess {
				st = StatusRemoteAccessErr
			}
			// The request pays the path out; the responder NAKs
			// without executing and the NAK travels straight back.
			r.failAfter(op, st, service, outBytes, extraLat+2*p.OneWayLatency)
			return
		case ActDelay:
			r.C.Injected++
			f := v.Factor
			if f < 1 {
				f = 1
			}
			owl = sim.Time(float64(float64(owl)*f) + 0.5) // rounded product: no fused multiply-add
		case ActDrop:
			r.C.Injected++
			drops := v.Drops
			if drops < 1 {
				drops = 1
			}
			if drops > p.MaxRetransmits {
				// Transport gives up: retry-exceeded is reported
				// locally once the whole retry budget elapses.
				r.C.Retransmits += uint64(p.MaxRetransmits)
				r.failAfter(op, StatusRetryExceeded, service, outBytes,
					sim.Time(p.MaxRetransmits+1)*p.RetransmitTimeout)
				return
			}
			// The copy after the last drop gets through; everything
			// before it cost one retransmission timer each.
			r.C.Retransmits += uint64(drops)
			extraLat += sim.Time(drops) * p.RetransmitTimeout
		case ActBlackhole:
			r.C.Injected++
			r.reqPipe.Submit(service, func() {
				r.linkOut.Submit(r.linkTime(outBytes), func() {
					r.eng.Schedule(sim.Time(p.MaxRetransmits+1)*p.RetransmitTimeout, func() {
						// No completion, ever: the op vanishes and only
						// the send-queue slot is reclaimed. A software
						// watchdog is the only recovery.
						r.outstanding--
					})
				})
			})
			return
		}
	}

	f := r.newFlight()
	f.op, f.target, f.targetKind = op, target, targetKind
	f.outBytes, f.inBytes = outBytes, inBytes
	f.owl, f.extraLat = owl, extraLat
	r.reqPipe.Submit(service, f.then((*flight).afterReqPipe))
}

// failAfter runs op through the requester pipeline and outbound link,
// then delivers an error completion after wait (the NAK round trip or
// the exhausted transport retry budget). The responder is never
// touched: an erroring op applies no memory side effect.
func (r *RNIC) failAfter(op *Op, st Status, service sim.Time, outBytes int, wait sim.Time) {
	f := r.newFlight()
	f.op, f.outBytes = op, outBytes
	f.failStatus, f.failWait = st, wait
	r.reqPipe.Submit(service, f.then((*flight).failPipe))
}

// The outbound stages: requester pipeline, outbound link, wire.

func (f *flight) afterReqPipe() {
	f.r.linkOut.Submit(f.r.linkTime(f.outBytes), f.then((*flight).afterLinkOut))
}

// afterLinkOut puts the request on the wire. The plain hop rides the
// card's wire line; an MTT miss, a retransmission or an injected delay
// lengthens it, and that hop goes through the event heap instead.
func (f *flight) afterLinkOut() {
	if d := f.owl + f.extraLat; d == f.r.wire.Delay() {
		f.r.wire.Schedule(f.then((*flight).atResponder))
	} else {
		f.r.eng.Schedule(d, f.then((*flight).atResponder))
	}
}

// The responder stages. The memory side effect (op.Exec) happens here,
// at the moment the real card would apply it, so all blade accesses
// are linearized in virtual-time order. Persistent-memory media time
// is modeled as added latency, not pipeline occupancy: the memory
// controller absorbs the access while the RNIC moves on.

func (f *flight) atResponder() {
	t := f.target
	f.mediaLat = 0
	if f.targetKind == blade.NVM {
		switch f.op.Kind {
		case OpRead:
			f.mediaLat = t.P.NVMReadExtra
		default:
			f.mediaLat = t.P.NVMWriteExtra
		}
	}
	t.respPipe.Submit(t.P.ResponderService, f.then((*flight).afterRespPipe))
}

func (f *flight) afterRespPipe() {
	t := f.target
	if f.op.Kind == OpCAS || f.op.Kind == OpFAA {
		t.C.AtomicOps++
		t.atomicUnit.Submit(t.P.AtomicUnitService, f.then((*flight).finish))
	} else {
		f.finish()
	}
}

func (f *flight) finish() {
	if f.mediaLat > 0 {
		f.r.eng.Schedule(f.mediaLat, f.then((*flight).fire))
	} else {
		f.fire()
	}
}

func (f *flight) fire() {
	if f.op.Exec != nil {
		f.op.Exec()
	}
	// Response travels back (on the requester's wire line unless an
	// injected delay lengthened the hop); charge the requester's inbound
	// link, then process the completion.
	if f.owl == f.r.wire.Delay() {
		f.r.wire.Schedule(f.then((*flight).afterReturnWire))
	} else {
		f.r.eng.Schedule(f.owl, f.then((*flight).afterReturnWire))
	}
}

func (f *flight) afterReturnWire() {
	f.r.linkIn.Submit(f.r.linkTime(f.inBytes), f.then((*flight).atCompletion))
}

// The completion stages: WQE cache lookup (with outstanding-dependent
// hit rate), pipeline occupancy for the CQE, DMA accounting, and
// finally CQE delivery via op.Complete.

func (f *flight) atCompletion() {
	r, p := f.r, &f.r.P
	service := p.CQEService
	f.missLat = 0
	f.dma = p.BaseDMABytes + f.op.Payload
	if r.outstanding > p.WQECacheEntries {
		pMiss := 1.0 - float64(p.WQECacheEntries)/float64(r.outstanding)
		if r.eng.Rand().Float64() < pMiss {
			r.C.WQEMisses++
			service += p.WQEMissPipe
			f.missLat = p.WQEMissLatency
			f.dma += p.WQEMissDMABytes
		}
	}
	r.reqPipe.Submit(service, f.then((*flight).preDeliver))
}

func (f *flight) preDeliver() {
	if f.missLat > 0 {
		f.r.eng.Schedule(f.missLat, f.then((*flight).deliver))
	} else {
		f.deliver()
	}
}

// deliver is the terminal stage: it recycles the flight and then
// invokes op.Complete. The order lets a completion handler that
// reposts immediately (the common coroutine pattern) reuse this very
// flight; nothing touches the flight after Complete runs.
func (f *flight) deliver() {
	r, op, dma := f.r, f.op, f.dma
	f.op = nil
	f.target = nil
	r.flights = append(r.flights, f)
	r.outstanding--
	if op.Status == StatusSuccess {
		r.C.Completed++
		r.C.ByKind[op.Kind]++
	} else {
		// Error completions are counted separately so MOPS computed
		// from Completed dips during a fault window.
		r.C.Errors++
	}
	r.C.DMABytes += uint64(dma)
	if op.Complete != nil {
		op.Complete()
	}
}

// The failAfter stages: requester pipeline and outbound link as usual,
// then the error verdict lands after the configured wait and funnels
// into the shared completion stages.

func (f *flight) failPipe() {
	f.r.linkOut.Submit(f.r.linkTime(f.outBytes), f.then((*flight).failLink))
}

func (f *flight) failLink() {
	f.r.eng.Schedule(f.failWait, f.then((*flight).failDeliver))
}

func (f *flight) failDeliver() {
	f.op.Status = f.failStatus
	f.atCompletion()
}

// Snapshot returns a copy of the counters, for windowed measurements.
func (r *RNIC) Snapshot() Counters { return r.C }

// Utilization returns the busy fraction of the requester pipeline over
// the elapsed virtual time (diagnostic).
func (r *RNIC) Utilization() float64 {
	if r.eng.Now() == 0 {
		return 0
	}
	return float64(r.reqPipe.Busy) / float64(r.eng.Now())
}
