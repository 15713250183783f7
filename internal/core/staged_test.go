package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/blade"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// refPost, refAcquire, refSubmit, refEnqueue, refRun and refFlush are
// the submission path as it was before it ran as the sender's
// engine-context stages, kept verbatim (renamed, and calling each
// other) as the reference the staged loop must reproduce event for
// event: the posting coroutine itself parks at every credit wait and
// every PostList, and is switched into after each. refPostSend and
// refSync are PostSend and Sync calling them.
func (c *Ctx) refPost(wrs []*verbs.WR, chain bool) {
	t := c.T
	for i := 0; i < len(wrs); {
		qp := t.qpFor(wrs[i])
		c.refAcquire()
		j := i + 1
		for chain && j < len(wrs) && t.qpFor(wrs[j]) == qp &&
			(t.credits == nil || (t.credits.Waiters() == 0 && t.credits.Available() >= 1)) {
			c.refAcquire()
			j++
		}
		if t.coal != nil {
			t.coal.refEnqueue(c.proc, wrs[i])
		} else {
			t.refSubmit(c.proc, qp, wrs[i:j])
		}
		i = j
	}
}

func (c *Ctx) refAcquire() {
	t := c.T
	c.pending++
	if t.credits != nil {
		t.credits.Acquire(c.proc, 1)
	}
}

func (t *Thread) refSubmit(p *sim.Proc, qp *verbs.QP, wrs []*verbs.WR) {
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

func (co *coalescer) refEnqueue(p *sim.Proc, wr *verbs.WR) {
	co.buf = append(co.buf, wr)
	if len(co.buf) == 1 {
		co.firstAt = co.t.rt.eng.Now()
		co.armTimer()
	}
	if len(co.buf) >= co.t.rt.opts.Batching.CoalesceBatch {
		co.refFlush(p, flushFull)
	}
}

func (co *coalescer) refRun(p *sim.Proc) {
	for {
		for !co.due {
			co.idle = true
			p.Suspend()
			co.idle = false
		}
		if co.t.rt.stopped {
			return
		}
		co.due = false
		co.refFlush(p, flushDeadline)
	}
}

func (co *coalescer) refFlush(p *sim.Proc, reason int) {
	if len(co.buf) == 0 {
		return
	}
	t := co.t
	wrs := co.buf
	co.buf = co.spare[:0]
	co.spare = nil
	co.gen++
	co.due = false
	co.flushes[reason]++
	co.coalesced += uint64(len(wrs))
	if d := t.rt.opts.Batching.FlushDeadline; d > 0 && t.rt.eng.Now() > co.firstAt+d {
		co.overruns++
	}
	for i := 0; i < len(wrs); {
		qp := t.qpFor(wrs[i])
		j := i + 1
		for j < len(wrs) && t.qpFor(wrs[j]) == qp {
			j++
		}
		t.refSubmit(p, qp, wrs[i:j])
		i = j
	}
	clear(wrs)
	co.spare = wrs[:0]
}

func (c *Ctx) refPostSend() {
	wrs := c.buf
	c.buf = nil
	t := c.T
	c.refPost(wrs, t.rt.opts.Batching.Postlist && t.coal == nil)
	clear(wrs)
	c.buf = wrs[:0]
}

func (c *Ctx) refSync() {
	t := c.T
	if t.coal != nil {
		t.coal.refFlush(c.proc, flushSync)
	}
	if c.pending > 0 {
		c.syncing = true
		c.proc.Suspend()
	}
	for round := 0; len(c.failed) > 0; round++ {
		if round >= t.rt.opts.MaxWRRetries {
			t.Stats.FaultAbandoned += uint64(len(c.failed))
			c.failed = c.failed[:0]
			return
		}
		retry := c.failed
		c.failed = nil
		t.Stats.FaultRetries += uint64(len(retry))
		c.refPost(retry, false)
		if t.coal != nil {
			t.coal.refFlush(c.proc, flushSync)
		}
		if c.pending > 0 {
			c.syncing = true
			c.proc.Suspend()
		}
	}
}

// subScript is one differential scenario, decoded from bytes: threads
// of coroutines, each running ops of one or two PostSends of mixed
// READ/WRITE/CAS/FAA batches over two blades and a Sync, under one
// batching mode, with or without work-request throttling, faults and
// a watchdog. In a fused op the staged side leaves its last batch
// buffered for Sync to post, against the reference's refPostSend then
// refSync.
type subScript struct {
	seed      int64
	batching  verbs.Batching
	policy    Policy
	throttle  bool
	faults    bool
	timeout   bool
	threads   int
	stopAt    sim.Time
	coroutine [][]subOp // per coroutine, threads-major
}

// subOp is one op: a Sleep of gap, then PostSends of posts[k] WRs each,
// then one Sync; with fuse set, the last batch is posted by the Sync.
type subOp struct {
	gap   sim.Time
	posts []int
	fuse  bool
}

// subHorizon bounds every run: past fault.Default()'s windows (2–4 ms).
const subHorizon = 5 * sim.Millisecond

// decodeSubScript reads a scenario from b; running out of bytes reads
// zeros, so every input decodes. Byte 0's low five bits pick the
// batching mode, throttling, faults and watchdog; byte 4 < 128 stops
// the run early.
func decodeSubScript(b []byte) subScript {
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		v := int(b[0])
		b = b[1:]
		return v
	}
	h := next()
	s := subScript{
		throttle: h&4 != 0,
		faults:   h&8 != 0,
		timeout:  h&16 != 0,
		policy:   []Policy{PerThreadDoorbell, PerThreadQP, SharedQP}[h>>5%3],
		seed:     int64(next()),
	}
	s.batching.Postlist = h&1 != 0
	if v := next(); h&2 != 0 {
		s.batching.Coalesce = true
		s.batching.CoalesceBatch = 1 + v%24
		s.batching.FlushDeadline = sim.Time(1+v/24) * 300 * sim.Nanosecond
	}
	v := next()
	s.threads = 1 + v%2
	coros := 1 + v/2%4
	if v := next(); v < 128 {
		s.stopAt = sim.Time(v+1) * subHorizon / 128
	}
	s.coroutine = make([][]subOp, s.threads*coros)
	for len(b) > 0 {
		v := next()
		k := v % len(s.coroutine)
		op := subOp{gap: sim.Time(v/len(s.coroutine)%8) * 100 * sim.Microsecond}
		v = next()
		op.fuse = v&2 == 0
		for n := 1 + v%2; n > 0; n-- {
			op.posts = append(op.posts, 1+next()%24)
		}
		s.coroutine[k] = append(s.coroutine[k], op)
	}
	return s
}

// subLaunch is one WR handed to the card: when, and which.
type subLaunch struct {
	at sim.Time
	id uint64
}

// subRecorder wraps the fault injector (nil: fault-free) and logs every
// launch. The card asks it about each op at submit time, right after
// the launch bumped the WR's attempt counter, which identifies the WR.
type subRecorder struct {
	inner   rnic.Injector
	wrs     []*verbs.WR
	seen    []uint64
	index   map[*verbs.WR]bool
	log     []subLaunch
	unknown int
}

func (r *subRecorder) track(wr *verbs.WR) {
	if !r.index[wr] {
		r.index[wr] = true
		r.wrs = append(r.wrs, wr)
		r.seen = append(r.seen, wr.Attempt())
	}
}

func (r *subRecorder) Decide(kind rnic.OpKind, now sim.Time, rng *rand.Rand) rnic.Verdict {
	found := false
	for i, wr := range r.wrs {
		if wr.Attempt() > r.seen[i] {
			r.seen[i], found = wr.Attempt(), true
			r.log = append(r.log, subLaunch{at: now, id: wr.ID})
			break
		}
	}
	if !found {
		r.unknown++
	}
	if r.inner == nil {
		return rnic.Verdict{}
	}
	return r.inner.Decide(kind, now, rng)
}

// subThread is one thread's counters at the end of a run.
type subThread struct {
	Waits     uint64
	Coalesce  CoalesceStats
	Stats     ThreadStats
	OWRMax    int
	Stale     uint64
	Delivered uint64
}

// subOutcome is everything a run exposes: launches, each WR's status
// after its Sync, each PostSend's and Sync's return time, the threads'
// counters, and the engine's counters before and after Stop.
type subOutcome struct {
	Launches             []subLaunch
	Statuses             []string
	Returns              []string
	Threads              []subThread
	Events, Parks, Wakes uint64
	Pending              int
	Now                  sim.Time
	NextRand             int64
	AfterStop            [3]uint64
	Unknown              int
	Switches             uint64
}

// runSubScript runs s through the staged submission loop, or through
// the reference with ref set.
func runSubScript(s subScript, ref bool) subOutcome {
	cl := cluster.New(cluster.Config{
		ComputeBlades: 1,
		MemoryBlades:  2,
		BladeCapacity: 1 << 16,
		Seed:          s.seed,
	})
	opts := Baseline(s.policy)
	opts.WorkReqThrottle = s.throttle
	opts.UpdateDelta = 40 * sim.Microsecond
	opts.MaxWRRetries = 2
	if s.timeout {
		opts.WRTimeout = 12 * sim.Microsecond
	}
	// The coalescers are installed below, the same way on both sides,
	// so that each side's flusher runs its own flush.
	opts.Batching.Postlist = s.batching.Postlist
	rt, err := New(cl.Computes[0].NIC, cl.Targets(), s.threads, opts)
	if err != nil {
		panic(err)
	}
	if s.batching.Coalesce {
		rt.opts.Batching = s.batching
		for _, t := range rt.threads {
			co := newCoalescer(t)
			t.coal = co
			run := co.run
			if ref {
				run = co.refRun
			}
			co.flusher = rt.eng.Go(fmt.Sprintf("t%d-coal-flusher", t.ID), run)
			co.send.bind(t, nil, co.flusher)
		}
	}
	rec := &subRecorder{index: map[*verbs.WR]bool{}}
	if s.faults {
		rec.inner = fault.Default()
	}
	cl.Computes[0].NIC.SetFault(rec)
	regions := []blade.Addr{cl.Memories[0].Mem.Alloc(512), cl.Memories[1].Mem.Alloc(512)}

	var out subOutcome
	var ids uint64
	perThread := len(s.coroutine) / s.threads
	for k, ops := range s.coroutine {
		rng := rand.New(rand.NewSource(s.seed*31 + int64(k)))
		rt.Thread(k/perThread).Spawn(fmt.Sprintf("c%d", k), func(c *Ctx) {
			var round []*verbs.WR
			for i, op := range ops {
				c.Proc().Sleep(op.gap)
				c.BeginOp()
				round = round[:0]
				for b, n := range op.posts {
					for j := 0; j < n; j++ {
						addr := regions[rng.Intn(2)].Add(uint64(rng.Intn(64)) * 8)
						var wr *verbs.WR
						switch rng.Intn(4) {
						case 0:
							wr = c.Read(addr, c.Buf(8))
						case 1:
							wr = c.Write(addr, c.Buf(8))
						case 2:
							wr = c.CAS(addr, 0, uint64(k))
						default:
							wr = c.FAA(addr, 1)
						}
						ids++
						wr.ID = ids
						rec.track(wr)
						round = append(round, wr)
					}
					if op.fuse && b == len(op.posts)-1 {
						break // the Sync below posts the last batch
					}
					if ref {
						c.refPostSend()
					} else {
						c.PostSend()
					}
					out.Returns = append(out.Returns, fmt.Sprintf("c%d#%d post@%v", k, i, c.Now()))
				}
				if ref && op.fuse {
					c.refPostSend()
				}
				if ref {
					c.refSync()
				} else {
					c.Sync()
				}
				out.Returns = append(out.Returns, fmt.Sprintf("c%d#%d sync@%v", k, i, c.Now()))
				for _, wr := range round {
					out.Statuses = append(out.Statuses, fmt.Sprintf("%d:%v", wr.ID, wr.Status))
				}
				c.EndOp()
			}
		})
	}
	until := subHorizon
	if s.stopAt > 0 {
		until = s.stopAt
	}
	cl.Eng.Run(until)
	out.Launches, out.Unknown = rec.log, rec.unknown
	for _, t := range rt.threads {
		st := subThread{Coalesce: t.CoalesceStats(), Stats: t.Stats, OWRMax: t.OWRMax(),
			Stale: t.cq.Stale, Delivered: t.cq.Delivered}
		if t.credits != nil {
			st.Waits = t.credits.Waits
		}
		out.Threads = append(out.Threads, st)
	}
	eng := cl.Eng
	out.Events, out.Parks, out.Wakes = eng.Events(), eng.Parks(), eng.Wakes()
	out.Pending, out.Now = eng.Pending(), eng.Now()
	out.NextRand = eng.Rand().Int63()
	out.Switches = eng.Switches()
	rt.Stop()
	eng.Stop()
	out.AfterStop = [3]uint64{eng.Events(), eng.Parks(), eng.Wakes()}
	return out
}

// checkStagedSubmission runs the scenario in b through the staged loop
// and through the reference, and fails on any difference but the
// switch count, which must not rise.
func checkStagedSubmission(t *testing.T, b []byte) {
	t.Helper()
	s := decodeSubScript(b)
	staged, ref := runSubScript(s, false), runSubScript(s, true)
	if staged.Unknown != 0 {
		t.Fatalf("%d launches matched no posted WR", staged.Unknown)
	}
	if staged.Switches > ref.Switches {
		t.Errorf("staged loop switched into processes %d times, the reference %d", staged.Switches, ref.Switches)
	}
	staged.Switches, ref.Switches = 0, 0
	if !reflect.DeepEqual(staged, ref) {
		v1, v2 := reflect.ValueOf(staged), reflect.ValueOf(ref)
		for i := 0; i < v1.NumField(); i++ {
			if !reflect.DeepEqual(v1.Field(i).Interface(), v2.Field(i).Interface()) {
				t.Errorf("%s: staged %v, reference %v", v1.Type().Field(i).Name,
					v1.Field(i).Interface(), v2.Field(i).Interface())
			}
		}
		t.Fatalf("staged submission diverges from the reference on %+v", s)
	}
}

// TestStagedSubmissionMatchesReference replays a seeded workload under
// every batching mode, with throttling on and off, fault-free and under
// fault.Default(), with and without a watchdog, through both loops.
func TestStagedSubmissionMatchesReference(t *testing.T) {
	for h := 0; h < 32; h++ {
		s := decodeSubScript([]byte{byte(h)})
		name := fmt.Sprintf("%s/throttle=%v/faults=%v/timeout=%v", s.batching, s.throttle, s.faults, s.timeout)
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(h) + 1))
			b := make([]byte, 60+rng.Intn(100))
			rng.Read(b)
			b[0] = byte(h) | b[0]&0xe0
			b[4] = 255 // run to the horizon
			checkStagedSubmission(t, b)
		})
	}
}

// FuzzStagedSubmission is TestStagedSubmissionMatchesReference over
// fuzzed scenarios, Stop mid-run included. CI runs it with a short
// -fuzztime budget.
func FuzzStagedSubmission(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x05, 7, 9, 200, 3, 1, 17, 4, 33, 2, 200, 5, 1, 8, 9})
	f.Add([]byte{0x1f, 1, 30, 5, 255, 1, 255, 2, 254, 3, 253, 4, 0, 6, 16})
	f.Add([]byte{0x4e, 9, 12, 2, 255, 0, 100, 1, 4, 2, 15, 3, 3, 1, 0, 0, 200})
	f.Add([]byte{0x8b, 3, 40, 7, 60, 2, 23, 23, 9, 1, 23, 4, 7, 0, 22, 11, 5, 1})
	f.Fuzz(checkStagedSubmission)
}

// refBackoffCASSync is BackoffCASSync as it was before its credit
// re-acquire ran as a stage of the sleep's wake, kept verbatim (renamed)
// as the reference: the coroutine is switched into at the sleep's end
// and again when its operation credit is granted.
func (c *Ctx) refBackoffCASSync(addr blade.Addr, compare, swap uint64) (old uint64, swapped bool) {
	old, swapped = c.CASSync(addr, compare, swap)
	if swapped {
		return old, true
	}
	t := c.T
	if t.rt.opts.Backoff {
		t0 := t.rt.opts.BackoffUnit
		d := t0 << uint(c.casAttempts)
		if d > t.tmax || d <= 0 {
			d = t.tmax
		}
		d += sim.Time(t.rt.eng.Rand().Int63n(int64(t0)))
		c.casAttempts++
		if t.tel.Tracing() {
			t.tel.Emit(t.rt.eng.Now(), "backoff",
				fmt.Sprintf("t%d sleep=%s tmax=%s", t.ID, d, t.tmax))
		}
		holdsCredit := c.inOp && t.coroCredits != nil
		if holdsCredit {
			t.coroCredits.Release(1)
		}
		c.proc.Sleep(d)
		if holdsCredit {
			t.coroCredits.Acquire(c.proc, 1)
		}
	} else {
		c.casAttempts++
	}
	return old, false
}

// TestBackoffReacquireMatchesReference runs lock-protected updates on
// two hot words under SMART's backoff, with coroutine throttling at a
// depth of 2 (so a coroutine leaving its backoff often waits for its
// credit) and without, through BackoffCASSync and the reference. Every
// op's end time, CAS and retry count, the thread stats, the hot words,
// Events/Parks/Wakes/Pending, the next rand draw and the after-Stop
// counts must be equal; the staged form must switch less whenever a
// re-acquire waited.
func TestBackoffReacquireMatchesReference(t *testing.T) {
	type outcome struct {
		Ops                  []string
		Stats                []ThreadStats
		Words                [2]uint64
		Events, Parks, Wakes uint64
		Pending              int
		NextRand             int64
		AfterStop            [3]uint64
	}
	run := func(coroThrottle, ref bool, seed int64) (outcome, uint64) {
		opts := Smart()
		opts.CoroThrottle = coroThrottle
		opts.Depth = 2
		opts.UpdateDelta = 40 * sim.Microsecond
		cl, rt := testRig(t, 2, 1, opts)
		hot := [2]blade.Addr{cl.Memories[0].Mem.Alloc(8), cl.Memories[0].Mem.Alloc(8)}
		data := cl.Memories[0].Mem.Alloc(64)
		var out outcome
		for k := 0; k < 12; k++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(k)))
			rt.Thread(k%2).Spawn(fmt.Sprintf("c%d", k), func(c *Ctx) {
				for i := 0; ; i++ {
					c.BeginOp()
					w := hot[rng.Intn(2)]
					cas := 0
					for {
						cas++
						var ok bool
						if ref {
							_, ok = c.refBackoffCASSync(w, 0, uint64(k+1))
						} else {
							_, ok = c.BackoffCASSync(w, 0, uint64(k+1))
						}
						if ok {
							break
						}
					}
					c.Write(data.Add(8*uint64(rng.Intn(8))), c.Buf(8))
					c.Sync()
					c.WriteSync(w, c.Buf(8))
					retries := c.EndOp()
					out.Ops = append(out.Ops, fmt.Sprintf("c%d#%d@%v cas=%d retries=%d", k, i, c.Now(), cas, retries))
				}
			})
		}
		cl.Eng.Run(300 * sim.Microsecond)
		eng := cl.Eng
		for _, th := range rt.threads {
			out.Stats = append(out.Stats, th.Stats)
		}
		out.Words = [2]uint64{cl.Memories[0].Mem.Load8(hot[0].Offset), cl.Memories[0].Mem.Load8(hot[1].Offset)}
		out.Events, out.Parks, out.Wakes = eng.Events(), eng.Parks(), eng.Wakes()
		out.Pending = eng.Pending()
		out.NextRand = eng.Rand().Int63()
		switches := eng.Switches()
		rt.Stop()
		eng.Stop()
		out.AfterStop = [3]uint64{eng.Events(), eng.Parks(), eng.Wakes()}
		return out, switches
	}
	for _, coroThrottle := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			staged, sw := run(coroThrottle, false, seed)
			ref, refSw := run(coroThrottle, true, seed)
			if !reflect.DeepEqual(staged, ref) {
				t.Fatalf("coroThrottle=%v seed %d: staged backoff %+v, reference %+v", coroThrottle, seed, staged, ref)
			}
			if len(staged.Ops) < 50 || staged.Stats[0].CASFailed == 0 {
				t.Fatalf("coroThrottle=%v seed %d: %d ops, %d failed CAS on thread 0: no contention", coroThrottle, seed, len(staged.Ops), staged.Stats[0].CASFailed)
			}
			t.Logf("coroThrottle=%v seed %d: %d ops, switches %d, reference %d", coroThrottle, seed, len(staged.Ops), sw, refSw)
			if coroThrottle && sw >= refSw || !coroThrottle && sw != refSw {
				t.Errorf("coroThrottle=%v seed %d: staged backoff switched %d times, the reference %d", coroThrottle, seed, sw, refSw)
			}
		}
	}
}
