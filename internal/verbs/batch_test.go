package verbs

import (
	"math/rand"
	"testing"

	"repro/internal/blade"
	"repro/internal/rnic"
	"repro/internal/sim"
)

func TestParseBatching(t *testing.T) {
	good := []struct {
		spec string
		want Batching
	}{
		{"off", Batching{}},
		{"postlist", Batching{Postlist: true}},
		// Unset knobs stay zero: the runtime fills the defaults.
		{"coalesce", Batching{Coalesce: true}},
		{"both", Batching{Postlist: true, Coalesce: true}},
		{"coalesce:batch=4", Batching{Coalesce: true, CoalesceBatch: 4}},
		{"both:batch=32,deadline=5us", Batching{Postlist: true, Coalesce: true, CoalesceBatch: 32, FlushDeadline: 5 * sim.Microsecond}},
		{"coalesce:deadline=800ns", Batching{Coalesce: true, FlushDeadline: 800 * sim.Nanosecond}},
	}
	for _, g := range good {
		got, err := ParseBatching(g.spec)
		if err != nil {
			t.Errorf("ParseBatching(%q): %v", g.spec, err)
			continue
		}
		if got != g.want {
			t.Errorf("ParseBatching(%q) = %+v, want %+v", g.spec, got, g.want)
		}
		// String() must round-trip to an equivalent config.
		again, err := ParseBatching(got.String())
		if err != nil || again != got {
			t.Errorf("round-trip %q -> %q -> %+v (err %v)", g.spec, got.String(), again, err)
		}
	}

	bad := []string{
		"", "none", "postlist:batch=4", "off:deadline=1us", "coalesce:batch=0",
		"coalesce:batch=70000", "coalesce:deadline=0ns", "coalesce:deadline=2h",
		"coalesce:deadline=5", "coalesce:batch=x", "both:frobnicate", "both:batch",
		"postlist:sharedcq", "off:sharedcq",
	}
	for _, s := range bad {
		if b, err := ParseBatching(s); err == nil {
			t.Errorf("ParseBatching(%q) = %+v, want error", s, b)
		}
	}
}

func TestBatchingWithDefaults(t *testing.T) {
	if b := (Batching{}).WithDefaults(); b != (Batching{}) {
		t.Errorf("off picked up defaults: %+v", b)
	}
	b := Batching{Coalesce: true}.WithDefaults()
	if b.CoalesceBatch != 16 || b.FlushDeadline != 2*sim.Microsecond {
		t.Errorf("coalesce defaults = %+v", b)
	}
	if !b.Enabled() || (Batching{}).Enabled() {
		t.Error("Enabled() wrong")
	}
}

// TestRingNAccounting pins the chained doorbell cost model: one ring
// per chain and a hold of DBHold + (n-1)*DBChainedHold, so a chain of
// one costs exactly the plain per-WR DBHold.
func TestRingNAccounting(t *testing.T) {
	r := newRig(3)
	defer r.eng.Stop()
	addr := r.mem.Alloc(8)
	var db *Doorbell
	r.eng.Go("ringer", func(p *sim.Proc) {
		qp := r.ctx.CreateQP(r.ctx.CreateCQ(), r.tgt)
		db = qp.Doorbell()
		qp.PostList(p, Read(addr, make([]byte, 8)))
		wrs := make([]*WR, 8)
		for i := range wrs {
			wrs[i] = Read(addr, make([]byte, 8))
		}
		qp.PostList(p, wrs...)
	})
	r.eng.Run(0)
	if db.Rings != 2 {
		t.Errorf("Rings = %d, want 2", db.Rings)
	}
	par := rnic.Default()
	want := 2*par.DBHold + 7*par.DBChainedHold
	if db.HoldTicks != want {
		t.Errorf("HoldTicks = %d, want %d", db.HoldTicks, want)
	}
}

func TestPostListValidatesBlade(t *testing.T) {
	r := newRig(4)
	defer r.eng.Stop()
	addr := r.mem.Alloc(8)
	r.eng.Go("client", func(p *sim.Proc) {
		cq := r.ctx.CreateCQ()
		qp := r.ctx.CreateQP(cq, r.tgt)
		bad := Read(blade.Addr{Blade: 9, Offset: addr.Offset}, make([]byte, 8))
		defer func() {
			if recover() == nil {
				t.Error("PostList accepted a WR for the wrong blade")
			}
		}()
		qp.PostList(p, Read(addr, make([]byte, 8)), bad)
	})
	r.eng.Run(0)
}

// TestPostListEquivalence is the verbs-level differential test: for a
// random mix of READ/WRITE/CAS/FAA work requests, chained submission
// must produce byte-identical per-WR outcomes (Status, Result, read
// bytes, final memory) to per-WR PostSend — only the doorbell
// accounting may differ, and it must differ exactly as specified: one
// ring per chain versus one per WR.
func TestPostListEquivalence(t *testing.T) {
	type outcome struct {
		kind   rnic.OpKind
		status rnic.Status
		result uint64 // CAS/FAA only, and only meaningful on success
		data   byte   // first byte read, READ only
	}

	run := func(chained bool) (out []outcome, final []byte, rings, posted uint64) {
		r := newRig(5)
		defer r.eng.Stop()
		region := r.mem.Alloc(4096)
		for i := uint64(0); i < 4096; i += 8 {
			r.mem.Store8(region.Offset+i, i)
		}
		rng := rand.New(rand.NewSource(99))
		r.eng.Go("client", func(p *sim.Proc) {
			cq := r.ctx.CreateCQ()
			qp := r.ctx.CreateQP(cq, r.tgt)
			for round := 0; round < 20; round++ {
				n := 1 + rng.Intn(12)
				wrs := make([]*WR, n)
				for i := range wrs {
					addr := region.Add(uint64(rng.Intn(512)) * 8)
					switch rng.Intn(4) {
					case 0:
						wrs[i] = Read(addr, make([]byte, 8))
					case 1:
						wrs[i] = Write(addr, []byte{byte(rng.Intn(256)), 1, 2, 3, 4, 5, 6, 7})
					case 2:
						wrs[i] = CAS(addr, uint64(rng.Intn(4)), uint64(rng.Intn(256)))
					default:
						wrs[i] = FAA(addr, uint64(rng.Intn(16)))
					}
				}
				if chained {
					qp.PostList(p, wrs...)
				} else {
					qp.PostSend(p, wrs...)
				}
				cq.Recycle(cq.WaitN(p, n))
				for _, wr := range wrs {
					o := outcome{kind: wr.Kind, status: wr.Status}
					if wr.Status == rnic.StatusSuccess {
						switch wr.Kind {
						case rnic.OpCAS, rnic.OpFAA:
							o.result = wr.Result
						case rnic.OpRead:
							o.data = wr.Local[0]
						}
					}
					out = append(out, o)
				}
			}
			final = make([]byte, 4096)
			r.mem.ReadInto(region.Offset, final)
			rings, posted = qp.Doorbell().Rings, qp.Posted
		})
		r.eng.Run(0)
		return out, final, rings, posted
	}

	seq, seqMem, seqRings, seqPosted := run(false)
	chn, chnMem, chnRings, chnPosted := run(true)

	if len(seq) != len(chn) {
		t.Fatalf("completion counts differ: %d vs %d", len(seq), len(chn))
	}
	for i := range seq {
		if seq[i] != chn[i] {
			t.Errorf("WR %d: per-WR %+v vs chained %+v", i, seq[i], chn[i])
		}
	}
	for i := range seqMem {
		if seqMem[i] != chnMem[i] {
			t.Fatalf("final memory differs at offset %d: %d vs %d", i, seqMem[i], chnMem[i])
		}
	}
	if seqPosted != chnPosted {
		t.Errorf("posted %d per-WR vs %d chained", seqPosted, chnPosted)
	}
	if chnRings != 20 {
		t.Errorf("chained path rang %d times, want one ring per chain (20)", chnRings)
	}
	if seqRings != seqPosted {
		t.Errorf("per-WR path rang %d times for %d WRs", seqRings, seqPosted)
	}
}
