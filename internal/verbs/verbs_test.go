package verbs

import (
	"bytes"
	"testing"

	"repro/internal/blade"
	"repro/internal/rnic"
	"repro/internal/sim"
)

// rig is a one-compute / one-memory test fixture.
type rig struct {
	eng *sim.Engine
	ctx *Context
	tgt Target
	mem *blade.Blade
}

func newRig(seed int64) *rig {
	eng := sim.New(seed)
	cn := rnic.New(eng, "compute", rnic.Default())
	mn := rnic.New(eng, "memory", rnic.Default())
	mem := blade.New(1, blade.DRAM, 1<<20)
	return &rig{eng: eng, ctx: Open(cn), tgt: Target{NIC: mn, Mem: mem}, mem: mem}
}

func TestReadWriteRoundtrip(t *testing.T) {
	r := newRig(1)
	defer r.eng.Stop()
	addr := r.mem.Alloc(64)
	r.eng.Go("client", func(p *sim.Proc) {
		cq := r.ctx.CreateCQ()
		qp := r.ctx.CreateQP(cq, r.tgt)
		src := []byte("one-sided write payload bytes...")
		qp.PostSend(p, Write(addr, src))
		cq.WaitN(p, 1)

		dst := make([]byte, len(src))
		qp.PostSend(p, Read(addr, dst))
		cq.WaitN(p, 1)
		if !bytes.Equal(dst, src) {
			t.Errorf("read back %q, want %q", dst, src)
		}
	})
	r.eng.Run(0)
}

func TestCASThroughVerbs(t *testing.T) {
	r := newRig(2)
	defer r.eng.Stop()
	addr := r.mem.Alloc(8)
	r.mem.Store8(addr.Offset, 7)
	r.eng.Go("client", func(p *sim.Proc) {
		cq := r.ctx.CreateCQ()
		qp := r.ctx.CreateQP(cq, r.tgt)

		wr := CAS(addr, 7, 99)
		qp.PostSend(p, wr)
		cq.WaitN(p, 1)
		if !wr.Succeeded() || wr.Result != 7 {
			t.Errorf("CAS should succeed: result=%d", wr.Result)
		}

		wr2 := CAS(addr, 7, 123)
		qp.PostSend(p, wr2)
		cq.WaitN(p, 1)
		if wr2.Succeeded() {
			t.Error("stale CAS succeeded")
		}
		if wr2.Result != 99 {
			t.Errorf("stale CAS returned %d, want current value 99", wr2.Result)
		}
		if r.mem.Load8(addr.Offset) != 99 {
			t.Error("failed CAS modified memory")
		}
	})
	r.eng.Run(0)
}

func TestFAAThroughVerbs(t *testing.T) {
	r := newRig(3)
	defer r.eng.Stop()
	addr := r.mem.Alloc(8)
	r.eng.Go("client", func(p *sim.Proc) {
		cq := r.ctx.CreateCQ()
		qp := r.ctx.CreateQP(cq, r.tgt)
		for i := uint64(0); i < 3; i++ {
			wr := FAA(addr, 10)
			qp.PostSend(p, wr)
			cq.WaitN(p, 1)
			if wr.Status != rnic.StatusSuccess {
				t.Errorf("FAA %d status = %v", i, wr.Status)
			} else if wr.Result != i*10 {
				t.Errorf("FAA %d returned %d, want %d", i, wr.Result, i*10)
			}
		}
	})
	r.eng.Run(0)
}

func TestQPRoundRobinDoorbells(t *testing.T) {
	r := newRig(4)
	cq := r.ctx.CreateCQ()
	n := r.ctx.MediumDoorbells()
	if n != rnic.Default().DefaultMediumDBs {
		t.Fatalf("default medium DBs = %d", n)
	}
	var qps []*QP
	for i := 0; i < 2*n; i++ {
		if got := r.ctx.NextDoorbell(); got != i%n {
			t.Fatalf("NextDoorbell before QP %d = %d, want %d", i, got, i%n)
		}
		qps = append(qps, r.ctx.CreateQP(cq, r.tgt))
	}
	for i, qp := range qps {
		if qp.Doorbell().Index != i%n {
			t.Fatalf("QP %d on DB %d, want %d (round robin)", i, qp.Doorbell().Index, i%n)
		}
	}
	// QPs n apart share the same doorbell object — the implicit
	// contention from Fig. 2.
	if qps[0].Doorbell() != qps[n].Doorbell() {
		t.Fatal("QP 0 and QP n must share a doorbell")
	}
}

func TestSetMediumDoorbells(t *testing.T) {
	r := newRig(5)
	if err := r.ctx.SetMediumDoorbells(96); err != nil {
		t.Fatal(err)
	}
	if r.ctx.MediumDoorbells() != 96 {
		t.Fatal("resize did not stick")
	}
	if err := r.ctx.SetMediumDoorbells(100000); err == nil {
		t.Fatal("expected error above hardware limit")
	}
	cq := r.ctx.CreateCQ()
	r.ctx.CreateQP(cq, r.tgt)
	if err := r.ctx.SetMediumDoorbells(8); err == nil {
		t.Fatal("expected error after QP creation")
	}
}

func TestSharedDoorbellContention(t *testing.T) {
	// Two threads with separate QPs on the same doorbell must be slower
	// than two threads on separate doorbells.
	run := func(dbs int) sim.Time {
		eng := sim.New(42)
		defer eng.Stop()
		cn := rnic.New(eng, "c", rnic.Default())
		mn := rnic.New(eng, "m", rnic.Default())
		mem := blade.New(1, blade.DRAM, 1<<16)
		addr := mem.Alloc(8)
		ctx := Open(cn)
		if err := ctx.SetMediumDoorbells(dbs); err != nil {
			panic(err)
		}
		tgt := Target{NIC: mn, Mem: mem}
		var finish sim.Time
		for i := 0; i < 2; i++ {
			eng.Go("thr", func(p *sim.Proc) {
				cq := ctx.CreateCQ()
				qp := ctx.CreateQP(cq, tgt)
				for j := 0; j < 200; j++ {
					var wrs []*WR
					for k := 0; k < 8; k++ {
						wrs = append(wrs, Read(addr, make([]byte, 8)))
					}
					qp.PostSend(p, wrs...)
					cq.WaitN(p, 8)
				}
				if eng.Now() > finish {
					finish = eng.Now()
				}
			})
		}
		eng.Run(0)
		return finish
	}
	shared, separate := run(1), run(2)
	if shared <= separate {
		t.Fatalf("shared doorbell (%v) not slower than separate (%v)", shared, separate)
	}
}

func TestPollAndWaitN(t *testing.T) {
	r := newRig(6)
	defer r.eng.Stop()
	addr := r.mem.Alloc(8)
	r.eng.Go("client", func(p *sim.Proc) {
		cq := r.ctx.CreateCQ()
		qp := r.ctx.CreateQP(cq, r.tgt)
		if got := cq.Poll(10); got != nil {
			t.Errorf("Poll on empty CQ = %v", got)
		}
		qp.PostSend(p, Read(addr, make([]byte, 8)), Read(addr, make([]byte, 8)))
		got := cq.WaitN(p, 1)
		got = append(got, cq.WaitN(p, 1)...)
		if len(got) != 2 {
			t.Errorf("completions = %d, want 2", len(got))
		}
		if cq.Len() != 0 {
			t.Errorf("CQ not drained: %d", cq.Len())
		}
	})
	r.eng.Run(0)
}

func TestWrongBladePanics(t *testing.T) {
	r := newRig(7)
	defer r.eng.Stop()
	r.eng.Go("client", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic posting WR for wrong blade")
			}
		}()
		cq := r.ctx.CreateCQ()
		qp := r.ctx.CreateQP(cq, r.tgt)
		qp.PostSend(p, Read(blade.Addr{Blade: 99, Offset: 8}, make([]byte, 8)))
	})
	r.eng.Run(0)
}

func TestWRConstructors(t *testing.T) {
	a := blade.Addr{Blade: 1, Offset: 64}
	if wr := Read(a, make([]byte, 16)); wr.Kind != rnic.OpRead || wr.payload() != 16 {
		t.Fatal("Read constructor wrong")
	}
	if wr := Write(a, make([]byte, 32)); wr.Kind != rnic.OpWrite || wr.payload() != 32 {
		t.Fatal("Write constructor wrong")
	}
	if wr := CAS(a, 1, 2); wr.Kind != rnic.OpCAS || wr.payload() != 8 {
		t.Fatal("CAS constructor wrong")
	}
	if wr := FAA(a, 5); wr.Kind != rnic.OpFAA || wr.payload() != 8 {
		t.Fatal("FAA constructor wrong")
	}
}
