package bench

import (
	"fmt"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/result"
	"repro/internal/rnic"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/telemetry"
	"repro/internal/verbs"
)

// A spec is an experiment: FromSpec is the one lowering from a
// spec.Spec onto the sweep point model. The registered experiments
// with a Spec builder (fig3, fig13, serving, batching — whose in-code
// sections also pin the golden spec files under testdata/specs/) and
// `smartbench -spec` both run what FromSpec returns, so a golden spec
// reproduces its figure byte-identically by construction, at any
// worker count.

// FromSpec validates s and lowers it to an experiment named after it.
// Everything that can be wrong with a spec is an error here: the
// embedded sub-spec strings (faults, arrival, batching, burst
// arrivals, profile policies) are resolved once, into typed values the
// returned Run closes over. Run therefore cannot fail: it only
// enumerates the section's grid into a sweep.Set — in order, every
// point isolated, merged in order — and executes it on env.Sweeper. s
// must not be modified after the call.
func FromSpec(s *spec.Spec) (*Experiment, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	e := &Experiment{ID: s.Name, Title: s.Title, Checks: s.Checks}
	if e.Title == "" {
		e.Title = s.Name
	}
	var knobs verbs.Batching
	if s.Batching != "" {
		var err error
		if knobs, err = verbs.ParseBatching(s.Batching); err != nil {
			return nil, err
		}
	}
	switch s.Scenario {
	case "micro":
		// Assigned only when a plan is present: a typed nil in the
		// interface would defeat RunMicro's Faults==nil fast path.
		var faults rnic.Injector
		if s.Faults != "" {
			plan, err := fault.Parse(s.Faults)
			if err != nil {
				return nil, err
			}
			faults = plan
		}
		series := make([]core.Options, len(s.Micro.Profiles))
		for i := range s.Micro.Profiles {
			prof := &s.Micro.Profiles[i]
			opts, err := prof.Options()
			if err != nil {
				return nil, err
			}
			opts.Batching = knobs
			series[i] = opts
		}
		e.Run = func(env Env) []result.Table {
			return runMicroPanels(env, s.Micro, series, faults)
		}
	case "serving":
		// The embedded arrival sub-spec (or the calibrated Poisson
		// default) is the template the sweep rescales per point. Specs
		// are immutable after parse and New draws from each point's own
		// rand stream, so concurrent points may share one safely.
		template := &arrival.Spec{Kind: arrival.KindPoisson, Rate: 4}
		if s.Arrival != "" {
			var err error
			if template, err = arrival.Parse(s.Arrival); err != nil {
				return nil, err
			}
		}
		sv := s.Serving
		var bursts []*arrival.Spec
		if b := sv.Burst; b != nil {
			for _, na := range b.Arrivals {
				a, err := arrival.Parse(na.Spec)
				if err != nil {
					return nil, err
				}
				bursts = append(bursts, a)
			}
		}
		// Every point must be a configuration serve.Run accepts: a load
		// fraction of a large nominal capacity can push the rescaled
		// arrival past its rate cap.
		check := func(topo spec.Topo, a *arrival.Spec, frac float64) error {
			cfg := servingSectionConfig(sv, topo, a.WithMeanRate(frac*servingNominal(sv, topo)))
			if err := serve.Config(cfg).Validate(); err != nil {
				return fmt.Errorf("spec: serving: topology %s at load %v: %w", topo.Label(), frac, err)
			}
			return nil
		}
		for _, topo := range sv.Topologies {
			for _, frac := range sv.LoadFracs {
				if err := check(topo, template, frac); err != nil {
					return nil, err
				}
			}
		}
		if b := sv.Burst; b != nil {
			for _, a := range bursts {
				for _, frac := range b.Fracs {
					if err := check(b.Topology, a, frac); err != nil {
						return nil, err
					}
				}
			}
		}
		if o := sv.Overload; o != nil {
			if err := check(o.Topology, template, o.Frac); err != nil {
				return nil, err
			}
		}
		// Only the overload point reads a registry.
		e.Instrumented = sv.Overload != nil
		e.Run = func(env Env) []result.Table {
			return runServingSection(env, sv, template, bursts)
		}
	case "batching":
		e.Run = func(env Env) []result.Table {
			return runBatchingSection(env, s.Ablation, knobs)
		}
	}
	return e, nil
}

// runSpec lowers a registered experiment's in-code spec and runs it.
// The builders are valid by construction — TestGoldenSpecsPinned
// round-trips each through Parse — so a lowering error is a bug.
func runSpec(build func(quick bool) *spec.Spec, env Env) []result.Table {
	e, err := FromSpec(build(env.Quick))
	if err != nil {
		panic(fmt.Sprintf("bench: in-code spec does not lower: %v", err))
	}
	return e.Run(env)
}

// runMicroPanels runs one micro section: every panel enumerates its
// profile × grid cross into one shared set (tables fill in merge
// order), then a single Run executes all panels' points together.
// series[i] is profile i's resolved options, batching template applied.
// A point whose label env.probes names harvests into that registry.
func runMicroPanels(env Env, m *spec.Micro, series []core.Options, faults rnic.Injector) []result.Table {
	g := newGrid(env)
	for i := range m.Panels {
		p := &m.Panels[i]
		t := g.table(p.ID, p.Title, p.X)
		t.YUnit, t.Prec = "MOPS", 1
		op := rnic.OpRead
		if p.Op == "write" {
			op = rnic.OpWrite
		}
		swept, xShort := p.Threads, "thr"
		if p.X == "batch" {
			swept, xShort = p.Batch, "batch"
		}
		for _, v := range swept {
			threads, batch := v, p.Batch[0]
			if p.X == "batch" {
				threads, batch = p.Threads[0], v
			}
			for si, prof := range m.Profiles {
				label := fmt.Sprintf("%s/%s/%s=%d", p.ID, prof.Name, xShort, v)
				add(g, label, p.Seed,
					MicroConfig{Opts: series[si], Threads: threads, Batch: batch, Op: op, Faults: faults, Telemetry: env.probes[label]},
					func(r MicroResult) { t.Add(prof.Name, float64(v), r.MOPS) })
			}
		}
	}
	return g.run()
}

// servingSectionConfig builds one serving point from its section:
// topology topo offered aspec's aggregate rate, seeded by the grid (at
// sv.Seed). The M/M/c sanity test shares it, so the analytic knee
// check measures the exact station the section sweeps.
func servingSectionConfig(sv *spec.Serving, topo spec.Topo, aspec *arrival.Spec) servePoint {
	return servePoint{
		Runtimes:          topo.Runtimes,
		ThreadsPerRuntime: topo.Threads,
		Arrival:           aspec,
		TxnFrac:           sv.TxnFrac,
		Warmup:            sv.Warmup.Time(),
		Measure:           sv.Measure.Time(),
		Opts:              core.Baseline(core.PerThreadDoorbell),
	}
}

// servingNominal is topology t's calibrated capacity in ops/µs: the
// unit of a serving section's load fractions.
func servingNominal(sv *spec.Serving, t spec.Topo) float64 {
	return sv.CapacityPerThread * float64(t.Runtimes*t.Threads)
}

// runServingSection runs one serving section: the topology ×
// load-fraction grid, the optional burstiness panel (bursts[i] is
// sv.Burst.Arrivals[i] resolved), and — when env.Telemetry is non-nil
// — the section's instrumented overload point, which fills the
// registry and adds no table.
func runServingSection(env Env, sv *spec.Serving, template *arrival.Spec, bursts []*arrival.Spec) []result.Table {
	breakdown := sv.Breakdown.Label()

	g := newGrid(env)
	p99 := g.table("serving-p99",
		"Serving — op p99 latency vs offered load (fraction of nominal capacity)", "load")
	p99.XUnit, p99.YUnit, p99.Prec = "x capacity", "us", 2
	good := g.table("serving-goodput",
		"Serving — goodput (and offered load) vs load fraction", "load")
	good.XUnit, good.YUnit, good.Prec = "x capacity", "ops/us", 2
	shed := g.table("serving-shed",
		"Serving — shed fraction vs load fraction", "load")
	shed.XUnit, shed.YUnit, shed.Prec = "x capacity", "frac", 4
	lat := g.table("serving-latency",
		fmt.Sprintf("Serving — latency breakdown on the %s topology", breakdown), "load")
	lat.XUnit, lat.YUnit, lat.Prec = "x capacity", "us", 2

	for _, topo := range sv.Topologies {
		cfgLabel := topo.Label()
		for _, frac := range sv.LoadFracs {
			aspec := template.WithMeanRate(frac * servingNominal(sv, topo))
			add(g, fmt.Sprintf("serving/%s/load=%.2f", cfgLabel, frac), sv.Seed,
				servingSectionConfig(sv, topo, aspec),
				func(r serve.Result) {
					p99.Add(cfgLabel, frac, us(r.Op.P99))
					good.Add(cfgLabel, frac, r.Goodput)
					good.Add(cfgLabel+"-offered", frac, r.OfferedRate)
					shed.Add(cfgLabel, frac, r.ShedFrac)
					if cfgLabel == breakdown {
						lat.Add("op-p50", frac, us(r.Op.P50))
						lat.Add("op-p99", frac, us(r.Op.P99))
						lat.Add("op-p999", frac, us(r.Op.P999))
						lat.Add("txn-p99", frac, us(r.Txn.P99))
						lat.Add("wait-p99", frac, us(r.Wait.P99))
						lat.Add("service-p99", frac, us(r.Service.P99))
					}
				})
		}
	}

	// Burstiness panel: each named arrival process at matched mean rate
	// on one topology. The bursty processes transiently exceed capacity,
	// so the tail must suffer even though the mean load is below the
	// knee.
	if b := sv.Burst; b != nil {
		burst := g.table("serving-burst",
			fmt.Sprintf("Serving — arrival burstiness vs op p99 at matched mean rate (%s)", b.Topology.Label()), "load")
		burst.XUnit, burst.YUnit, burst.Prec = "x capacity", "us", 2
		for i, bspec := range bursts {
			name := b.Arrivals[i].Name
			for _, frac := range b.Fracs {
				aspec := bspec.WithMeanRate(frac * servingNominal(sv, b.Topology))
				cfg := servingSectionConfig(sv, b.Topology, aspec)
				// A small fixed client count (one in the built-in
				// section) keeps bursty on-phases correlated —
				// independent per-client phases would smooth the
				// aggregate back toward Poisson.
				cfg.Clients = b.Clients
				add(g, fmt.Sprintf("serving/burst/%s/load=%.2f", name, frac), sv.Seed,
					cfg, func(r serve.Result) { burst.Add(name, frac, us(r.Op.P99)) })
			}
		}
	}

	// With a registry, one overloaded point carries it (admission
	// counters, qdepth trajectory, runtime harvests). Enumerated last so
	// the plain grid above is untouched; the point owns the registry
	// exclusively.
	if o := sv.Overload; o != nil && env.Telemetry != nil {
		aspec := template.WithMeanRate(o.Frac * servingNominal(sv, o.Topology))
		cfg := servingSectionConfig(sv, o.Topology, aspec)
		cfg.Telemetry = env.Telemetry
		add(g, fmt.Sprintf("serving/telemetry/%s/load=%.2f", o.Topology.Label(), o.Frac), sv.Seed,
			cfg, nil)
	}

	return g.run()
}

// runBatchingSection runs one batching-ablation section: the four
// submission modes over the depth and thread grids plus the §4.2
// C_max coupling panel, with the knob template's overrides applied to
// the swept modes.
func runBatchingSection(env Env, ab *spec.Ablation, knobs verbs.Batching) []result.Table {
	g := newGrid(env)
	depth := g.table("batching-depth",
		fmt.Sprintf("Batching — READ MOPS vs post batch (%d threads, per-thread QP)", ab.FixedThreads), "batch")
	depth.YUnit, depth.Prec = "MOPS", 1
	cont := g.table("batching-contention",
		fmt.Sprintf("Batching — contended doorbell acquisitions per posted WR vs batch (%d threads, per-thread QP)", ab.FixedThreads), "batch")
	cont.Prec = 4
	thr := g.table("batching-threads",
		fmt.Sprintf("Batching — READ MOPS vs threads (batch %d, per-thread QP)", ab.FixedBatch), "threads")
	thr.YUnit, thr.Prec = "MOPS", 1
	cmaxT := g.table("batching-cmax",
		fmt.Sprintf("Batching — adopted C_max under §4.2 throttling (%d threads, per-thread QP)", ab.FixedThreads), "mode")
	cmaxT.Def("cmax-mean", "", 2)
	cmaxT.Def("MOPS", "", 1)
	for _, m := range batchingModes() {
		depth.Def(m.name, "", 1)
		cont.Def(m.name, "", 4)
		thr.Def(m.name, "", 1)
	}

	// Depth sweep + contention fractions: every point harvests into its
	// own probe registry (per-point isolation); the shared tables are
	// written in the merges, on the caller's goroutine, in enumeration
	// order.
	for _, b := range ab.Batches {
		for _, m := range batchingModes() {
			probe := telemetry.New()
			opts := core.Baseline(core.PerThreadQP)
			opts.Batching = batchingFor(knobs, m.b, b)
			add(g, fmt.Sprintf("batching/depth/%s/b=%d", m.name, b), ab.DepthSeed,
				MicroConfig{Opts: opts, Threads: ab.FixedThreads, Batch: b, Op: rnic.OpRead, Telemetry: probe},
				func(r MicroResult) {
					depth.Add(m.name, float64(b), r.MOPS)
					contended := probe.Value("db/contended-total")
					wrs := probe.Value("core/wrs")
					frac := 0.0
					if wrs > 0 {
						frac = float64(contended) / float64(wrs)
					}
					cont.Add(m.name, float64(b), frac)
				})
		}
	}

	// Thread sweep at a fixed post batch.
	for _, n := range ab.Threads {
		for _, m := range batchingModes() {
			opts := core.Baseline(core.PerThreadQP)
			opts.Batching = batchingFor(knobs, m.b, ab.FixedBatch)
			add(g, fmt.Sprintf("batching/threads/%s/thr=%d", m.name, n), ab.ThreadSeed,
				MicroConfig{Opts: opts, Threads: n, Batch: ab.FixedBatch, Op: rnic.OpRead},
				func(r MicroResult) { thr.Add(m.name, float64(n), r.MOPS) })
		}
	}

	// Controller coupling: the §4.2 tuner sweeps its candidate list
	// during warmup, adopts the best, and holds it through the
	// measurement window; CMaxMean is the adopted grant averaged over
	// threads. The coalesce threshold sits inside the candidate range —
	// 8 in the built-in section — so flush-by-full is reachable exactly
	// when the controller grants enough credits, which is the coupling
	// the check pins.
	for i, m := range batchingModes() {
		opts := core.Baseline(core.PerThreadQP)
		opts.WorkReqThrottle = true
		opts.UpdateDelta = ab.CMaxUpdateDelta.Time()
		opts.Batching = batchingFor(knobs, m.b, ab.CMaxCoalesceBatch)
		add(g, "batching/cmax/"+m.name, ab.CMaxSeed,
			MicroConfig{Opts: opts, Threads: ab.FixedThreads, Batch: ab.FixedBatch, Op: rnic.OpRead},
			func(r MicroResult) {
				cmaxT.AddLabeled("cmax-mean", float64(i), m.name, r.CMaxMean)
				cmaxT.AddLabeled("MOPS", float64(i), m.name, r.MOPS)
			})
	}

	return g.run()
}

// The in-code spec builders. The registered experiments run exactly
// these sections, and the quick-density encodings are pinned as the
// golden spec files under testdata/specs (TestGoldenSpecsPinned) — so
// the JSON on disk and the figure in the paper provably describe the
// same sweep.

func specName(base string, quick bool) string {
	if quick {
		return base + "-quick"
	}
	return base
}

// fig3Spec is the §3.1 QP-allocation comparison as a spec.
func fig3Spec(quick bool) *spec.Spec {
	return &spec.Spec{
		Version:  spec.Version,
		Name:     specName("fig3", quick),
		Title:    "Fig. 3: throughput of 8-byte READ/WRITE under different QP allocation policies (depth 8)",
		Scenario: "micro",
		Micro: &spec.Micro{
			Profiles: []spec.Profile{
				{Name: "shared-qp", Policy: "shared-qp"},
				{Name: "multiplexed-qp(q=4)", Policy: "multiplexed-qp"},
				{Name: "per-thread-qp", Policy: "per-thread-qp"},
				{Name: "per-thread-doorbell", Policy: "per-thread-doorbell"},
			},
			Panels: []spec.MicroPanel{
				{
					ID: "fig3-read", Title: "Fig. 3 — 8-byte READ, MOPS vs threads",
					Op: "read", X: "threads",
					Threads: threadGrid(quick), Batch: []int{8}, Seed: 11,
				},
				{
					ID: "fig3-write", Title: "Fig. 3 — 8-byte WRITE, MOPS vs threads",
					Op: "write", X: "threads",
					Threads: threadGrid(quick), Batch: []int{8}, Seed: 11,
				},
			},
		},
		Checks: []string{"fig3"},
	}
}

// fig13Spec is the SMART technique-stacking study as a spec.
func fig13Spec(quick bool) *spec.Spec {
	batches := []int{1, 2, 4, 8, 16, 32, 64}
	if quick {
		batches = []int{4, 16, 64}
	}
	return &spec.Spec{
		Version:  spec.Version,
		Name:     specName("fig13", quick),
		Title:    "Fig. 13: SMART's allocation and throttling techniques in the micro-benchmark",
		Scenario: "micro",
		Micro: &spec.Micro{
			Profiles: []spec.Profile{
				{Name: "per-thread-qp", Policy: "per-thread-qp"},
				{Name: "per-thread-context", Policy: "per-thread-context"},
				{Name: "+ThdResAlloc", Policy: "per-thread-doorbell"},
				{Name: "+WorkReqThrot", Policy: "per-thread-doorbell",
					Throttle: true, UpdateDelta: spec.Duration(400 * sim.Microsecond)},
			},
			Panels: []spec.MicroPanel{
				{
					ID: "fig13a", Title: "Fig. 13a — 8-byte READ MOPS vs threads (batch 16)",
					Op: "read", X: "threads",
					Threads: threadGrid(quick), Batch: []int{16}, Seed: 13,
				},
				{
					ID: "fig13b", Title: "Fig. 13b — 8-byte READ MOPS vs work request batch size (96 threads)",
					Op: "read", X: "batch",
					Threads: []int{96}, Batch: batches, Seed: 13,
				},
			},
		},
		Checks: []string{"fig13"},
	}
}

// servingSpec is the open-loop capacity study as a spec.
func servingSpec(quick bool) *spec.Spec {
	topos, fracs := servingGrid(quick)
	warmup, measure := 400*sim.Microsecond, 2*sim.Millisecond
	if quick {
		warmup, measure = 200*sim.Microsecond, sim.Millisecond
	}
	burstFracs := []float64{0.33, 0.5, 0.66}
	if quick {
		burstFracs = []float64{0.5}
	}
	return &spec.Spec{
		Version:  spec.Version,
		Name:     specName("serving", quick),
		Title:    "Open-loop serving capacity: SLO percentiles and goodput vs offered load x topology",
		Scenario: "serving",
		Serving: &spec.Serving{
			CapacityPerThread: servingPerThreadCapacity,
			TxnFrac:           servingTxnFrac,
			Topologies:        topos,
			LoadFracs:         fracs,
			Warmup:            spec.Duration(warmup),
			Measure:           spec.Duration(measure),
			Seed:              15,
			Breakdown:         spec.Topo{Runtimes: 2, Threads: 16},
			Burst: &spec.Burst{
				Topology: spec.Topo{Runtimes: 1, Threads: 8},
				Fracs:    burstFracs,
				Arrivals: []spec.NamedArrival{
					{Name: "poisson", Spec: "poisson:rate=4"},
					{Name: "mmpp", Spec: "mmpp:high=8,low=1,on=200us,off=600us"},
				},
				Clients: 1,
			},
			Overload: &spec.Overload{
				Topology: spec.Topo{Runtimes: 1, Threads: 8},
				Frac:     2.5,
			},
		},
		Checks: []string{"serving"},
	}
}

// batchingSpec is the WR-batching ablation as a spec.
func batchingSpec(quick bool) *spec.Spec {
	batches := []int{2, 4, 8, 16, 32}
	if quick {
		batches = []int{4, 16}
	}
	return &spec.Spec{
		Version:  spec.Version,
		Name:     specName("batching", quick),
		Title:    "Ablation: WR postlist batching + doorbell coalescing (§3.1 model, DESIGN.md §16)",
		Scenario: "batching",
		Ablation: &spec.Ablation{
			Batches:           batches,
			Threads:           threadGrid(quick),
			FixedThreads:      96,
			FixedBatch:        16,
			DepthSeed:         47,
			ThreadSeed:        48,
			CMaxSeed:          49,
			CMaxCoalesceBatch: 8,
			CMaxUpdateDelta:   spec.Duration(200 * sim.Microsecond),
		},
		Checks: []string{"batching"},
	}
}
