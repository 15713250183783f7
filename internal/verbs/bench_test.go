package verbs

import (
	"fmt"
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

// BenchmarkPostList measures the post path: posters processes, each
// with its own QP and all on one doorbell, post one-WR chains through
// PostList, a window of four at a time, and drain the window's
// completions with WaitN. One iteration is one post. With eight
// posters the QP locks are private but the doorbell spinlock is
// contended, so most posts wait for a handoff.
func BenchmarkPostList(b *testing.B) {
	for _, posters := range []int{1, 8} {
		b.Run(fmt.Sprintf("posters=%d", posters), func(b *testing.B) {
			eng := sim.New(1)
			cn := rnic.New(eng, "compute", rnic.Default())
			mn := rnic.New(eng, "memory", rnic.Default())
			mem := blade.New(1, blade.DRAM, 1<<20)
			ctx := Open(cn)
			if err := ctx.SetMediumDoorbells(1); err != nil {
				b.Fatal(err)
			}
			addr := mem.Alloc(4096)
			const window = 4
			posted := 0
			for k := 0; k < posters; k++ {
				eng.Go("poster", func(p *sim.Proc) {
					cq := ctx.CreateCQ()
					qp := ctx.CreateQP(cq, Target{NIC: mn, Mem: mem})
					wrs := make([]*WR, window)
					for i := range wrs {
						wrs[i] = Read(addr.Add(uint64(8*i)), make([]byte, 8))
					}
					for posted < b.N {
						for _, wr := range wrs {
							qp.PostList(p, wr)
							posted++
						}
						cq.Recycle(cq.WaitN(p, window))
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			eng.Run(0)
			b.StopTimer()
			eng.Stop()
			if posted < b.N {
				b.Fatalf("posted %d, want at least %d", posted, b.N)
			}
		})
	}
}
