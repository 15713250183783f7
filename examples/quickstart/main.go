// Quickstart: build a tiny disaggregated cluster, connect with SMART,
// and issue one-sided READ/WRITE/CAS/FAA from coroutines — the §5.1
// programming interface end to end.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// summary is what one demo run measured; main prints it, the test
// asserts it is a pure function of the seed.
type summary struct {
	counter   uint64
	completed uint64
}

// run executes the demo against a fresh cluster, writing the narrated
// progress to w. Everything is driven by the virtual clock, so equal
// seeds produce byte-identical output.
func run(w io.Writer, seed int64) summary {
	// One compute blade, two memory blades, default RNIC model.
	cl := cluster.New(cluster.Config{
		ComputeBlades: 1,
		MemoryBlades:  2,
		BladeCapacity: 16 << 20,
		Seed:          seed,
	})
	defer cl.Stop()

	// Carve some remote memory on blade 1 and a counter on blade 2.
	buf := cl.Memories[0].Mem.Alloc(64)
	counter := cl.Memories[1].Mem.Alloc(8)

	// A SMART runtime with 2 threads and every technique enabled:
	// per-thread doorbells, adaptive work-request throttling, and
	// conflict avoidance.
	rt := core.MustNew(cl.Computes[0].NIC, cl.Targets(), 2, core.Smart())
	defer rt.Stop()

	// Thread 0: write then read back, batched behind one doorbell.
	rt.Thread(0).Spawn("writer", func(c *core.Ctx) {
		msg := []byte("hello, disaggregated memory!")
		c.WriteSync(buf, msg)

		got := make([]byte, len(msg))
		c.ReadSync(buf, got)
		fmt.Fprintf(w, "[%v] thread 0 read back: %q\n", c.Now(), got)

		// Batch several work requests behind one doorbell: Sync posts
		// whatever is still buffered, then waits for it.
		a, b := make([]byte, 8), make([]byte, 8)
		c.Read(buf, a)
		c.Read(buf.Add(8), b)
		c.Sync()
		fmt.Fprintf(w, "[%v] thread 0 batched 2 READs in one doorbell ring\n", c.Now())
	})

	// Thread 1: contend on a counter with FAA and backoff CAS.
	rt.Thread(1).Spawn("atomics", func(c *core.Ctx) {
		for i := 0; i < 3; i++ {
			old := c.FAASync(counter, 10)
			fmt.Fprintf(w, "[%v] thread 1 FAA: %d -> %d\n", c.Now(), old, old+10)
		}
		// backoff_cas_sync: the conflict-avoidance CAS (§4.3).
		if old, ok := c.BackoffCASSync(counter, 30, 1000); ok {
			fmt.Fprintf(w, "[%v] thread 1 CAS 30 -> 1000 succeeded (old=%d)\n", c.Now(), old)
		}
	})

	// Drive the virtual clock until everything completes.
	cl.Eng.Run(sim.Second)

	s := summary{
		counter:   cl.Memories[1].Mem.Load8(counter.Offset),
		completed: cl.Computes[0].NIC.Snapshot().Completed,
	}
	fmt.Fprintf(w, "final counter value: %d\n", s.counter)
	fmt.Fprintf(w, "work requests completed by the RNIC: %d\n", s.completed)
	fmt.Fprintln(w, "ok")
	return s
}

func main() {
	run(os.Stdout, 1)
}
