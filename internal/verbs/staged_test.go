package verbs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/blade"
	"repro/internal/rnic"
	"repro/internal/sim"
)

// refRingN and refPostList are the post as it was before its holds ran
// as engine-context stages, kept verbatim as the reference the staged
// PostList must reproduce event for event: the posting thread itself
// parks in the QP lock, the QP-lock hold, the doorbell spinlock and the
// doorbell hold, and is switched into at every one of them.
func (d *Doorbell) refRingN(p *sim.Proc, par *rnic.Params, n int) {
	d.mu.Lock(p)
	waiters := d.mu.Waiters()
	hold := par.DBHold + sim.Time(n-1)*par.DBChainedHold + sim.Time(waiters)*par.DBBouncePerWaiter
	p.Sleep(hold)
	d.Rings++
	d.HoldTicks += hold
	d.mu.Unlock()
}

func (q *QP) refPostList(p *sim.Proc, wrs ...*WR) {
	if len(wrs) == 0 {
		return
	}
	par := &q.ctx.nic.P
	for _, wr := range wrs {
		if wr.Remote.Blade != q.remote.Mem.ID {
			panic(fmt.Sprintf("verbs: WR for blade %d posted on QP connected to blade %d",
				wr.Remote.Blade, q.remote.Mem.ID))
		}
	}
	q.lock.Lock(p)
	hold := par.QPLockHold + sim.Time(len(wrs)-1)*par.QPChainedHold +
		sim.Time(q.lock.Waiters())*par.QPBouncePerWaiter
	p.Sleep(hold)
	q.db.refRingN(p, par, len(wrs))
	q.lock.Unlock()
	for _, wr := range wrs {
		q.Posted++
		q.launch(wr)
	}
}

// postScript is one differential scenario, decoded from bytes: a few
// processes share a few QPs, which share a few doorbells, and each
// process interleaves posts of 1–16 WR chains with Sleeps of its own.
type postScript struct {
	seed      int64
	doorbells int
	qps       int
	zeroQP    bool     // QP-lock holds of zero: its Sleep wakes at once
	zeroDB    bool     // doorbell holds of zero, likewise
	stopAt    sim.Time // Stop mid-run at this time; 0 runs to the end
	procs     [][]postStep
}

// postStep is one process action: a chain of n WRs on QP qp, or (n ==
// 0) a Sleep of d.
type postStep struct {
	qp, n int
	d     sim.Time
}

// decodePostScript reads a scenario from b; running out of bytes reads
// zeros, so every input decodes.
func decodePostScript(b []byte) postScript {
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		v := int(b[0])
		b = b[1:]
		return v
	}
	h := next()
	s := postScript{
		seed:      int64(next()),
		doorbells: 1 + h%3,
		qps:       1 + h/3%4,
		zeroQP:    h&0x40 != 0,
		zeroDB:    h&0x80 != 0,
	}
	if v := next(); v < 96 {
		s.stopAt = sim.Time(v) * 40 * sim.Nanosecond
	}
	nprocs := 1 + next()%6
	s.procs = make([][]postStep, nprocs)
	for len(b) > 0 {
		v := next()
		k := v % nprocs
		arg := next()
		if v/nprocs%4 == 0 {
			s.procs[k] = append(s.procs[k], postStep{d: sim.Time(arg % 300)})
		} else {
			s.procs[k] = append(s.procs[k], postStep{qp: arg % s.qps, n: 1 + arg/s.qps%16})
		}
	}
	return s
}

// launchRec is one WR handed to the card: when, and which.
type launchRec struct {
	at sim.Time
	id uint64
}

// launchRecorder is a no-op fault injector that logs every launch. The
// card asks it about each op at submit time, right after the WR's
// attempt counter was bumped, which identifies the WR.
type launchRecorder struct {
	wrs     []*WR
	seen    []bool
	log     []launchRec
	unknown int
}

func (r *launchRecorder) Decide(_ rnic.OpKind, now sim.Time, _ *rand.Rand) rnic.Verdict {
	found := false
	for i, wr := range r.wrs {
		if !r.seen[i] && wr.Attempt() > 0 {
			r.seen[i], found = true, true
			r.log = append(r.log, launchRec{at: now, id: wr.ID})
			break
		}
	}
	if !found {
		r.unknown++
	}
	return rnic.Verdict{}
}

// postOutcome is everything a run exposes: launches, each post's
// return time, completions, lock and doorbell counters, and the
// engine's counters before and after Stop.
type postOutcome struct {
	Launches             []launchRec
	Returns              []string
	Completions          []string
	Rings                []uint64
	HoldTicks            []sim.Time
	DBAcq, DBContended   []uint64
	QPAcq, QPContended   []uint64
	Posted               []uint64
	Events, Parks, Wakes uint64
	Pending              int
	Now                  sim.Time
	NextRand             int64
	AfterStop            [3]uint64
	Unknown              int
}

// runPostScript runs s with post as the posting routine.
func runPostScript(s postScript, post func(*QP, *sim.Proc, []*WR)) postOutcome {
	eng := sim.New(s.seed)
	par := rnic.Default()
	if s.zeroQP {
		par.QPLockHold, par.QPChainedHold, par.QPBouncePerWaiter = 0, 0, 0
	}
	if s.zeroDB {
		par.DBHold, par.DBChainedHold, par.DBBouncePerWaiter = 0, 0, 0
	}
	cn := rnic.New(eng, "compute", par)
	mn := rnic.New(eng, "memory", par)
	mem := blade.New(1, blade.DRAM, 1<<16)
	rec := &launchRecorder{}
	cn.SetFault(rec)
	ctx := Open(cn)
	if err := ctx.SetMediumDoorbells(s.doorbells); err != nil {
		panic(err)
	}
	cq := ctx.CreateCQ()
	qps := make([]*QP, s.qps)
	for i := range qps {
		qps[i] = ctx.CreateQP(cq, Target{NIC: mn, Mem: mem})
	}
	region := mem.Alloc(512)
	var out postOutcome
	rng := rand.New(rand.NewSource(s.seed))
	for k, steps := range s.procs {
		eng.Go(fmt.Sprintf("poster%d", k), func(p *sim.Proc) {
			for i, st := range steps {
				if st.n == 0 {
					p.Sleep(st.d)
					continue
				}
				wrs := make([]*WR, st.n)
				for j := range wrs {
					addr := region.Add(uint64(rng.Intn(64)) * 8)
					switch rng.Intn(4) {
					case 0:
						wrs[j] = Read(addr, make([]byte, 8))
					case 1:
						wrs[j] = Write(addr, []byte{byte(j), 1, 2, 3, 4, 5, 6, 7})
					case 2:
						wrs[j] = CAS(addr, 0, uint64(k))
					default:
						wrs[j] = FAA(addr, 1)
					}
					wrs[j].ID = uint64(len(rec.wrs))
					wrs[j].OnComplete = func(wr *WR) {
						out.Completions = append(out.Completions,
							fmt.Sprintf("%d@%v:%v", wr.ID, eng.Now(), wr.Status))
					}
					rec.wrs = append(rec.wrs, wrs[j])
					rec.seen = append(rec.seen, false)
				}
				post(qps[st.qp], p, wrs)
				out.Returns = append(out.Returns, fmt.Sprintf("p%d#%d@%v", k, i, p.Now()))
			}
		})
	}
	eng.Run(s.stopAt)
	out.Launches, out.Unknown = rec.log, rec.unknown
	for _, db := range ctx.Doorbells() {
		out.Rings = append(out.Rings, db.Rings)
		out.HoldTicks = append(out.HoldTicks, db.HoldTicks)
		out.DBAcq = append(out.DBAcq, db.Acquisitions())
		out.DBContended = append(out.DBContended, db.Contended())
	}
	for _, qp := range qps {
		out.QPAcq = append(out.QPAcq, qp.lock.Acquisitions)
		out.QPContended = append(out.QPContended, qp.lock.Contended())
		out.Posted = append(out.Posted, qp.Posted)
	}
	out.Events, out.Parks, out.Wakes = eng.Events(), eng.Parks(), eng.Wakes()
	out.Pending, out.Now = eng.Pending(), eng.Now()
	out.NextRand = eng.Rand().Int63()
	eng.Stop()
	out.AfterStop = [3]uint64{eng.Events(), eng.Parks(), eng.Wakes()}
	return out
}

// checkStagedPost runs the scenario in b through the staged PostList
// and through refPostList, and fails on any difference.
func checkStagedPost(t *testing.T, b []byte) {
	t.Helper()
	s := decodePostScript(b)
	staged := runPostScript(s, func(q *QP, p *sim.Proc, wrs []*WR) { q.PostList(p, wrs...) })
	ref := runPostScript(s, func(q *QP, p *sim.Proc, wrs []*WR) { q.refPostList(p, wrs...) })
	if staged.Unknown != 0 {
		t.Fatalf("%d launches matched no posted WR", staged.Unknown)
	}
	if !reflect.DeepEqual(staged, ref) {
		v1, v2 := reflect.ValueOf(staged), reflect.ValueOf(ref)
		for i := 0; i < v1.NumField(); i++ {
			if !reflect.DeepEqual(v1.Field(i).Interface(), v2.Field(i).Interface()) {
				t.Errorf("%s: staged %v, reference %v", v1.Type().Field(i).Name,
					v1.Field(i).Interface(), v2.Field(i).Interface())
			}
		}
		t.Fatalf("staged post diverges from the reference on %+v", s)
	}
}

// TestStagedPostMatchesReference replays seeded random scenarios —
// shared and unshared QPs and doorbells, chains of 1–16, competing
// Sleeps, zero holds and Stop mid-post — through both posts.
func TestStagedPostMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 4+rng.Intn(120))
		rng.Read(b)
		checkStagedPost(t, b)
	}
}

// FuzzStagedPost is TestStagedPostMatchesReference over fuzzed
// scenarios. CI runs it with a short -fuzztime budget.
func FuzzStagedPost(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x0b, 7, 200, 3, 1, 17, 4, 33, 2, 200, 5, 1, 8, 9})
	f.Add([]byte{0xc0, 1, 30, 5, 1, 255, 2, 254, 3, 253, 4, 0, 6, 16})
	f.Add([]byte{0x45, 9, 12, 2, 0, 100, 1, 4, 2, 15, 3, 3, 1, 0, 0, 200})
	f.Fuzz(checkStagedPost)
}
