package verbs

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Batching configures the submission-path batching techniques layered
// on top of the plain per-WR PostSend path (RDMAbox-style postlist
// submission and doorbell coalescing; see DESIGN.md §16). The zero
// value — batching off — is the default everywhere, and every ring and
// event on that path stays byte-identical to the pre-batching model.
type Batching struct {
	// Postlist submits chains of linked work requests with one QP lock
	// acquisition and one doorbell ring per chain (ibv_post_send with a
	// next pointer) instead of one of each per WR.
	Postlist bool

	// Coalesce buffers posted work requests in a per-thread software
	// coalescing buffer and submits them together: when the buffer
	// reaches CoalesceBatch entries (flush-by-full), when the oldest
	// buffered WR has waited FlushDeadline of sim time
	// (flush-by-deadline, via an engine timer), or when the posting
	// thread reaches a Sync/WaitN point (explicit flush, so the
	// happens-before contract of "sync waits for everything posted"
	// holds without waiting out the deadline).
	Coalesce bool

	// CoalesceBatch is the flush-by-full threshold (default 16).
	CoalesceBatch int

	// FlushDeadline bounds how long a buffered WR may wait before the
	// coalescer submits it (default 2µs, roughly one unloaded RTT).
	FlushDeadline sim.Time
}

// Enabled reports whether any batching technique is on.
func (b Batching) Enabled() bool { return b.Postlist || b.Coalesce }

// WithDefaults returns b with unset knobs filled in. A runtime's
// options fill them when the runtime is built (core.Options), and
// nothing else does: a parsed or assembled config keeps zero for every
// knob it does not name.
func (b Batching) WithDefaults() Batching {
	if b.Coalesce {
		if b.CoalesceBatch <= 0 {
			b.CoalesceBatch = 16
		}
		if b.FlushDeadline <= 0 {
			b.FlushDeadline = 2 * sim.Microsecond
		}
	}
	return b
}

// String renders the canonical spec form, parseable by ParseBatching.
func (b Batching) String() string {
	var mode string
	switch {
	case b.Postlist && b.Coalesce:
		mode = "both"
	case b.Postlist:
		mode = "postlist"
	case b.Coalesce:
		mode = "coalesce"
	default:
		mode = "off"
	}
	var opts []string
	if b.Coalesce && b.CoalesceBatch > 0 {
		opts = append(opts, fmt.Sprintf("batch=%d", b.CoalesceBatch))
	}
	if b.Coalesce && b.FlushDeadline > 0 {
		opts = append(opts, fmt.Sprintf("deadline=%dns", int64(b.FlushDeadline)))
	}
	if len(opts) == 0 {
		return mode
	}
	return mode + ":" + strings.Join(opts, ",")
}

// ParseBatching builds a Batching config from a -batching spec string.
// The grammar:
//
//	spec := mode [":" opt ("," opt)*]
//	mode := "off" | "postlist" | "coalesce" | "both"
//	opt  := "batch=" n      (coalesce flush-by-full threshold)
//	      | "deadline=" dur (coalesce flush deadline; ns/us/ms/s suffix)
//
// Examples: "postlist", "coalesce:batch=32,deadline=4us", "both".
// A knob the spec does not name stays zero, so a caller can tell it
// from a set one; the runtime fills the defaults (WithDefaults).
// Malformed specs return an error, never panic.
func ParseBatching(spec string) (Batching, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Batching{}, fmt.Errorf("batching: empty spec")
	}
	mode, opts, hasOpts := strings.Cut(spec, ":")
	var b Batching
	switch mode {
	case "off":
	case "postlist":
		b.Postlist = true
	case "coalesce":
		b.Coalesce = true
	case "both":
		b.Postlist, b.Coalesce = true, true
	default:
		return Batching{}, fmt.Errorf("batching: unknown mode %q (want off, postlist, coalesce, or both)", mode)
	}
	if hasOpts {
		for _, opt := range strings.Split(opts, ",") {
			key, val, isKV := strings.Cut(opt, "=")
			switch {
			case isKV && key == "batch":
				n, err := strconv.Atoi(val)
				if err != nil || n < 1 || n > 1<<16 {
					return Batching{}, fmt.Errorf("batching: batch=%q out of range [1,65536]", val)
				}
				b.CoalesceBatch = n
			case isKV && key == "deadline":
				d, err := sim.ParseDuration(val)
				if err != nil {
					return Batching{}, fmt.Errorf("batching: %w", err)
				}
				if d <= 0 {
					return Batching{}, fmt.Errorf("batching: deadline must be positive")
				}
				b.FlushDeadline = d
			default:
				return Batching{}, fmt.Errorf("batching: unknown option %q", opt)
			}
		}
	}
	if (b.CoalesceBatch > 0 || b.FlushDeadline > 0) && !b.Coalesce {
		return Batching{}, fmt.Errorf("batching: batch=/deadline= only apply to coalesce/both modes")
	}
	return b, nil
}

// PostList posts a chain of linked work requests as one submission:
// the calling thread pays the userspace QP lock once and the doorbell
// ring once for the whole chain, then every WR travels through the
// card model individually. PostSend is PostList one WR at a time.
// Batching changes when work is submitted, never what completes.
//
// The thread holds the QP lock for QPLockHold + (n-1)·QPChainedHold
// (inflated by present waiters), and inside it the doorbell spinlock
// for one MMIO write and n WQE writes, DBHold + (n-1)·DBChainedHold
// (inflated likewise), as in mlx5. The amortization is the point of
// postlist submission: the locks are contended once per chain instead
// of once per WR.
//
// The thread is blocked for the whole post, so after its first park
// the rest runs as engine-context stages (see PostListStage), and the
// thread is switched into once, by the last stage (see sim.Proc.Block).
func (q *QP) PostList(p *sim.Proc, wrs ...*WR) {
	if !q.PostListStage(p, wrs, nil) {
		p.Block()
	}
}

// PostListStage is PostList for staged work (see sim.Proc.SleepStage):
// it carries the post as far as it goes without parking p, and reports
// true if it finished — every WR launched — or false if p parked on the
// way. Then the rest of the post runs as engine-context stages on a
// pooled poster while p stays blocked, and the stage that launches the
// last WR runs then inside the same event: a caller with more staged
// work continues it there, and a nil then resumes p (sim.Proc.Resume).
// A caller in p's own body that gets false calls p.Block.
func (q *QP) PostListStage(p *sim.Proc, wrs []*WR, then func()) bool {
	if len(wrs) == 0 {
		return true
	}
	for _, wr := range wrs {
		if wr.Remote.Blade != q.remote.Mem.ID {
			panic(fmt.Sprintf("verbs: WR for blade %d posted on QP connected to blade %d",
				wr.Remote.Blade, q.remote.Mem.ID))
		}
	}
	return q.poster(p, wrs, then).advance()
}

// poster is one PostList in progress. Posters are pooled per QP, and
// stage is bound once, when the poster is first created, so a staged
// post allocates nothing, like the card model's flights.
type poster struct {
	q      *QP
	p      *sim.Proc
	wrs    []*WR // the chain, copied: the caller's slice does not escape
	step   int
	dbHold sim.Time // the doorbell hold, charged to the doorbell as it ends
	then   func()   // the caller's continuation; nil resumes p
	stage  func()   // resume, bound once
}

// A post's steps, in order. Each of the first four may park the
// posting thread; the next step runs when it would have woken.
const (
	lockQP = iota
	holdQP
	lockDB
	holdDB
	launchWRs
)

// poster returns a pooled (or freshly bound) poster for one PostList.
func (q *QP) poster(p *sim.Proc, wrs []*WR, then func()) *poster {
	var s *poster
	if n := len(q.posters); n > 0 {
		s = q.posters[n-1]
		q.posters[n-1] = nil
		q.posters = q.posters[:n-1]
	} else {
		s = &poster{q: q}
		s.stage = s.resume
	}
	s.p, s.wrs, s.step, s.then = p, append(s.wrs, wrs...), lockQP, then
	return s
}

// advance runs the post's steps until one parks the thread, and
// reports whether the post finished: the locks released, every WR
// launched and the poster back in its pool.
func (s *poster) advance() bool {
	q, p, par := s.q, s.p, &s.q.ctx.nic.P
	n := sim.Time(len(s.wrs) - 1)
	for {
		switch s.step {
		case lockQP:
			s.step = holdQP
			if !q.lock.LockStage(p, s.stage) {
				return false
			}
		case holdQP:
			s.step = lockDB
			hold := par.QPLockHold + n*par.QPChainedHold +
				sim.Time(q.lock.Waiters())*par.QPBouncePerWaiter
			if !p.SleepStage(hold, s.stage) {
				return false
			}
		case lockDB:
			s.step = holdDB
			if !q.db.mu.LockStage(p, s.stage) {
				return false
			}
		case holdDB:
			s.step = launchWRs
			s.dbHold = par.DBHold + n*par.DBChainedHold +
				sim.Time(q.db.mu.Waiters())*par.DBBouncePerWaiter
			if !p.SleepStage(s.dbHold, s.stage) {
				return false
			}
		default: // launchWRs
			q.db.Rings++
			q.db.HoldTicks += s.dbHold
			q.db.mu.Unlock()
			q.lock.Unlock()
			for _, wr := range s.wrs {
				q.Posted++
				q.launch(wr)
			}
			clear(s.wrs)
			s.p, s.wrs, s.then = nil, s.wrs[:0], nil
			q.posters = append(q.posters, s)
			return true
		}
	}
}

// resume is the stage callback: the thread's wake at its last park,
// run in engine context. It carries the post on and, once the post
// finishes, runs the caller's continuation or switches into the thread
// inside the current event. The poster is back in its pool by then, so
// a continuation that posts on this QP again may reuse it.
func (s *poster) resume() {
	p, then := s.p, s.then
	if !s.advance() {
		return
	}
	if then != nil {
		then()
	} else {
		p.Resume()
	}
}
