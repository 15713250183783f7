package verbs

import (
	"testing"

	"repro/internal/blade"
	"repro/internal/rnic"
	"repro/internal/sim"
)

// BenchmarkCQEDelivery measures the full data-path cost per work
// request: post through the QP lock and doorbell, travel the card
// model, deliver the completion through OnComplete — the SMART
// framework's hot path. One iteration is one WR, so allocs/op is the
// per-WR allocation rate the per-QP launch pool targets.
func BenchmarkCQEDelivery(b *testing.B) {
	eng := sim.New(1)
	cn := rnic.New(eng, "compute", rnic.Default())
	mn := rnic.New(eng, "memory", rnic.Default())
	mem := blade.New(1, blade.DRAM, 1<<20)
	ctx := Open(cn)
	addr := mem.Alloc(4096)

	const batch = 8
	completed, posted := 0, 0
	eng.Go("client", func(p *sim.Proc) {
		cq := ctx.CreateCQ()
		qp := ctx.CreateQP(cq, Target{NIC: mn, Mem: mem})
		buf := make([]byte, 8)
		wrs := make([]*WR, batch)
		for i := range wrs {
			wrs[i] = Read(addr, buf)
			wrs[i].OnComplete = func(*WR) {
				completed++
				if completed%batch == 0 {
					p.Wake()
				}
			}
		}
		for posted < b.N {
			qp.PostSend(p, wrs...)
			posted += batch
			p.Suspend()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(0)
	b.StopTimer()
	eng.Stop()
	if completed < b.N {
		b.Fatalf("completed %d WRs, want at least %d", completed, b.N)
	}
}

// BenchmarkCQEPollWait measures the buffered-CQE consumer path: WRs
// without OnComplete buffer entries in the CQ, and the consumer drains
// them in batches with WaitN, handing each batch buffer back through
// Recycle. One iteration is one WR.
func BenchmarkCQEPollWait(b *testing.B) {
	eng := sim.New(1)
	cn := rnic.New(eng, "compute", rnic.Default())
	mn := rnic.New(eng, "memory", rnic.Default())
	mem := blade.New(1, blade.DRAM, 1<<20)
	ctx := Open(cn)
	addr := mem.Alloc(4096)

	const batch = 8
	drained := 0
	eng.Go("consumer", func(p *sim.Proc) {
		cq := ctx.CreateCQ()
		qp := ctx.CreateQP(cq, Target{NIC: mn, Mem: mem})
		buf := make([]byte, 8)
		wrs := make([]*WR, batch)
		for i := range wrs {
			wrs[i] = Read(addr, buf)
		}
		for drained < b.N {
			qp.PostSend(p, wrs...)
			got := cq.WaitN(p, batch)
			drained += len(got)
			cq.Recycle(got)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(0)
	b.StopTimer()
	eng.Stop()
	if drained < b.N {
		b.Fatalf("drained %d CQEs, want at least %d", drained, b.N)
	}
}
