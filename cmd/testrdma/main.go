// Command testrdma mirrors the basic test of the paper's artifact
// (test/test_rdma): it measures the throughput of 8-byte READ or WRITE
// between a compute blade and a memory blade at a given thread count
// and concurrency depth, with SMART's optimizations enabled by
// default.
//
//	testrdma [flags] [nr_thread] [outstanding_work_requests_per_thread]
//
// Example (matching the artifact's sample invocation):
//
//	testrdma 96 8
//	rdma-read: #threads=96, #depth=8, #block_size=8, IOPS=102.63 M/s
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rnic"
	"repro/internal/sim"
)

func main() {
	var (
		op      = flag.String("op", "read", "read or write")
		block   = flag.Int("block", 8, "payload bytes per work request")
		policy  = flag.String("policy", "per-thread-doorbell", "shared-qp | multiplexed-qp | per-thread-qp | per-thread-context | per-thread-doorbell")
		smart   = flag.Bool("smart", true, "enable SMART's throttling (thread-aware allocation comes from -policy)")
		measure = flag.Int("ms", 4, "measurement window, simulated milliseconds")
	)
	flag.Parse()

	threads, depth := 96, 8
	if args := flag.Args(); len(args) > 0 {
		threads = atoi(args[0])
		if len(args) > 1 {
			depth = atoi(args[1])
		}
	}

	kind := rnic.OpRead
	if *op == "write" {
		kind = rnic.OpWrite
	}

	pol, err := core.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts := core.Baseline(pol)
	if *smart {
		opts.WorkReqThrottle = true
		opts.UpdateDelta = 400 * sim.Microsecond
	}

	r := bench.RunMicro(bench.MicroConfig{
		Opts: opts, Threads: threads, Batch: depth,
		Op: kind, Payload: *block, Seed: 1,
		Measure: sim.Time(*measure) * sim.Millisecond,
	})

	bw := r.MOPS * float64(*block) // MB/s
	fmt.Printf("rdma-%s: #threads=%d, #depth=%d, #block_size=%d, BW=%.3f MB/s, IOPS=%.3f M/s\n",
		*op, threads, depth, *block, bw, r.MOPS)
	fmt.Printf("         dma=%.0f B/WR, wqe-miss=%.2f, policy=%s, throttling=%v\n",
		r.DMABytesPerWR, r.WQEMissRate, pol, *smart)
}

func atoi(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		fmt.Fprintf(os.Stderr, "bad count %q\n", s)
		os.Exit(2)
	}
	return n
}
