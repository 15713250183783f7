package bench

import (
	"fmt"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/result"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The serving experiment is the open-loop capacity-planning study
// over internal/serve: sweep the offered arrival rate × the
// blade/thread topology and report SLO percentiles (p50/p99/p999 op
// and txn latency split into queue wait and service time), goodput,
// and shed fraction. Load is expressed as a fraction of each
// topology's nominal capacity so one x-axis compares every
// configuration, and the shape checks pin the saturation knee: p99
// flat below it, superlinear across it, goodput plateauing (and load
// shedding) past it.

// servingPerThreadCapacity is the calibrated steady-state capacity of
// one serving thread (4 worker coroutines over the ~3.8 µs sync READ
// service path), in ops/us. Measured on the PerThreadDoorbell policy:
// 1 runtime × 8 threads saturates at ≈ 9.17 ops/us, 2×16 at ≈ 36.7 —
// both ≈ 1.15 per thread. Load fraction 1.0 sits right at the knee.
const servingPerThreadCapacity = 1.15

// servingTxnFrac is the transaction mix of the serving workload: one
// in five requests is a READ+FAA transaction.
const servingTxnFrac = 0.2

// servingSeed is every serving point's base workload seed.
const servingSeed = 15

// servingOverloadFrac places the instrumented overload point an
// -telemetry run adds: the swept template at this multiple of the small
// topology's nominal capacity.
const servingOverloadFrac = 2.5

// topo is one serving topology: compute blades (= memory blades) and
// threads per runtime.
type topo struct{ runtimes, threads int }

// label renders the topology as the tables and checks name it.
func (t topo) label() string { return fmt.Sprintf("%dx%d", t.runtimes, t.threads) }

// nominal is the topology's calibrated capacity in ops/µs: the unit of
// the serving load fractions.
func (t topo) nominal() float64 {
	return servingPerThreadCapacity * float64(t.runtimes*t.threads)
}

// servingGrid returns the topology × load-fraction grid. The quick
// grid keeps the exact fractions and the two smaller topologies the
// shape checks reference, so -quick -check exercises every predicate.
// topos[0] also carries the burstiness panel and the overload point,
// and topos[1] gets the latency-breakdown table.
func servingGrid(quick bool) (topos []topo, fracs []float64) {
	topos = []topo{{1, 8}, {2, 16}}
	fracs = []float64{0.25, 0.5, 1.5, 2.5}
	if !quick {
		topos = append(topos, topo{4, 32})
		fracs = []float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5}
	}
	return topos, fracs
}

// servingTemplate is the arrival process the sweep rescales per point:
// env.Arrival (-arrival), or the calibrated Poisson default. Specs are
// immutable and New draws from each point's own rand stream, so
// concurrent points may share one.
func servingTemplate(env Env) *arrival.Spec {
	if env.Arrival != nil {
		return env.Arrival
	}
	return &arrival.Spec{Kind: arrival.KindPoisson, Rate: 4}
}

// servingConfig is one serving point: topology t offered a at frac
// times t's nominal capacity. The M/M/c sanity test shares it, so the
// analytic knee check measures the exact station the sweep runs.
func servingConfig(t topo, a *arrival.Spec, frac float64) servePoint {
	return servePoint{
		Runtimes:          t.runtimes,
		ThreadsPerRuntime: t.threads,
		Arrival:           a.WithMeanRate(frac * t.nominal()),
		TxnFrac:           servingTxnFrac,
		Opts:              core.Baseline(core.PerThreadDoorbell),
	}
}

// validateServing rejects an arrival template that some point's load
// rescales into a configuration serve.Run refuses (a rate past the
// arrival model's cap), before any point runs.
func validateServing(env Env) error {
	a := servingTemplate(env)
	check := func(t topo, frac float64) error {
		if err := serve.Config(servingConfig(t, a, frac)).Validate(); err != nil {
			return fmt.Errorf("topology %s at load %v: %w", t.label(), frac, err)
		}
		return nil
	}
	topos, fracs := servingGrid(env.Quick)
	for _, t := range topos {
		for _, frac := range fracs {
			if err := check(t, frac); err != nil {
				return err
			}
		}
	}
	return check(topos[0], servingOverloadFrac)
}

// runServing runs the topology × load-fraction grid, the burstiness
// panel, and — when env.Telemetry is non-nil — the instrumented
// overload point, which fills the registry and adds no table.
func runServing(env Env) []result.Table {
	template := servingTemplate(env)
	topos, fracs := servingGrid(env.Quick)
	small, breakdown := topos[0], topos[1].label()

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

	for _, t := range topos {
		cfgLabel := t.label()
		for _, frac := range fracs {
			add(g, fmt.Sprintf("serving/%s/load=%.2f", cfgLabel, frac), servingSeed,
				servingConfig(t, template, frac),
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

	// Burstiness panel: each arrival process at matched mean rate on
	// the small topology, whatever -arrival says. The bursty process
	// transiently exceeds capacity, so the tail must suffer even though
	// the mean load is below the knee.
	burstFracs := []float64{0.33, 0.5, 0.66}
	if env.Quick {
		burstFracs = []float64{0.5}
	}
	burst := g.table("serving-burst",
		fmt.Sprintf("Serving — arrival burstiness vs op p99 at matched mean rate (%s)", small.label()), "load")
	burst.XUnit, burst.YUnit, burst.Prec = "x capacity", "us", 2
	for _, b := range []struct {
		name string
		a    *arrival.Spec
	}{
		{"poisson", &arrival.Spec{Kind: arrival.KindPoisson, Rate: 4}},
		{"mmpp", &arrival.Spec{Kind: arrival.KindMMPP, High: 8, Low: 1, On: 200 * sim.Microsecond, Off: 600 * sim.Microsecond}},
	} {
		for _, frac := range burstFracs {
			cfg := servingConfig(small, b.a, frac)
			// One client machine keeps bursty on-phases correlated —
			// independent per-client phases would smooth the aggregate
			// back toward Poisson.
			cfg.Clients = 1
			add(g, fmt.Sprintf("serving/burst/%s/load=%.2f", b.name, frac), servingSeed,
				cfg, func(r serve.Result) { burst.Add(b.name, frac, us(r.Op.P99)) })
		}
	}

	// With a registry, one overloaded point carries it (admission
	// counters, qdepth trajectory, runtime harvests). Enumerated last so
	// the plain grid above is untouched; the point owns the registry
	// exclusively.
	if env.Telemetry != nil {
		cfg := servingConfig(small, template, servingOverloadFrac)
		cfg.Telemetry = env.Telemetry
		add(g, fmt.Sprintf("serving/telemetry/%s/load=%.2f", small.label(), servingOverloadFrac), servingSeed,
			cfg, nil)
	}

	return g.run()
}

// -arrival sets env.Arrival; the burst-comparison table always runs its
// own poisson and mmpp processes regardless of it. A non-nil
// env.Telemetry adds the instrumented overload point, whose registry
// export rides along after the result tables.
func init() {
	register(&Experiment{
		ID:           "serving",
		Title:        "Open-loop serving capacity: SLO percentiles and goodput vs offered load x topology",
		Category:     "serving",
		Instrumented: true,
		Validate:     validateServing,
		Run:          runServing,
	})
}
