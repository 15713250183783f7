package arrival

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/sim"
)

// Kind names an arrival process family.
type Kind int

const (
	KindPoisson Kind = iota
	KindMMPP
	KindTrace
)

func (k Kind) String() string {
	switch k {
	case KindPoisson:
		return "poisson"
	case KindMMPP:
		return "mmpp"
	case KindTrace:
		return "trace"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Spec is the declarative form of an arrival process: what smartbench
// -arrival parses and what the serving experiment sweeps. Rates are
// aggregate across all clients, in ops/us; Spec.New splits the load
// evenly over a client count.
type Spec struct {
	Kind Kind

	// Poisson.
	Rate float64 // ops/us

	// MMPP on-off.
	High, Low float64  // ops/us; Low may be 0 (silent off phase)
	On, Off   sim.Time // mean phase durations

	// Trace.
	Gaps []sim.Time // replayed cyclically
}

// Validate checks the spec's numeric ranges. All checks are phrased
// positively (x > 0, not !(x <= 0)) so NaN fails them.
func (s *Spec) Validate() error {
	switch s.Kind {
	case KindPoisson:
		if !(s.Rate > 0 && s.Rate <= maxRate) {
			return fmt.Errorf("arrival: poisson rate %v out of range (0, %v] ops/us", s.Rate, maxRate)
		}
	case KindMMPP:
		if !(s.High > 0 && s.High <= maxRate) {
			return fmt.Errorf("arrival: mmpp high rate %v out of range (0, %v] ops/us", s.High, maxRate)
		}
		if !(s.Low >= 0 && s.Low <= s.High) {
			return fmt.Errorf("arrival: mmpp low rate %v out of range [0, high] ops/us", s.Low)
		}
		if s.On <= 0 || s.Off <= 0 {
			return fmt.Errorf("arrival: mmpp phase means must be positive (on=%v off=%v)", s.On, s.Off)
		}
	case KindTrace:
		if len(s.Gaps) == 0 {
			return fmt.Errorf("arrival: trace needs at least one gap")
		}
		if len(s.Gaps) > maxTraceGaps {
			return fmt.Errorf("arrival: trace has %d gaps, max %d", len(s.Gaps), maxTraceGaps)
		}
		for i, g := range s.Gaps {
			if g <= 0 {
				return fmt.Errorf("arrival: trace gap %d (%v) must be positive", i, g)
			}
		}
	default:
		return fmt.Errorf("arrival: unknown kind %d", int(s.Kind))
	}
	return nil
}

const (
	// maxRate bounds any single rate at 1000 ops/us (1 Gop/s): far
	// above anything the simulated cluster can absorb, low enough
	// that per-client mean gaps stay well clear of the 1 ns floor.
	maxRate = 1000.0
	// maxTraceGaps keeps -arrival trace specs (and fuzz inputs) sane.
	maxTraceGaps = 4096
)

// MeanRate returns the spec's long-run aggregate arrival rate in
// ops/us. For MMPP it is the phase-duration-weighted mix of High and
// Low; for a trace it is the cycle length over the cycle duration.
func (s *Spec) MeanRate() float64 {
	switch s.Kind {
	case KindPoisson:
		return s.Rate
	case KindMMPP:
		// Each product is rounded explicitly, so no architecture fuses
		// one into a multiply-add (DESIGN.md §8).
		return (float64(s.High*float64(s.On)) + float64(s.Low*float64(s.Off))) / float64(s.On+s.Off)
	case KindTrace:
		var sum sim.Time
		for _, g := range s.Gaps {
			sum += g
		}
		return float64(len(s.Gaps)) * 1e3 / float64(sum)
	}
	return 0
}

// WithMeanRate returns a copy of the spec rescaled so MeanRate() ==
// rate, preserving the process shape: Poisson and MMPP rates scale
// linearly, trace gaps scale inversely. rate must be positive.
func (s *Spec) WithMeanRate(rate float64) *Spec {
	if !(rate > 0) {
		panic("arrival: WithMeanRate needs a positive rate")
	}
	c := *s
	f := rate / s.MeanRate()
	switch s.Kind {
	case KindPoisson:
		c.Rate = rate
	case KindMMPP:
		c.High *= f
		c.Low *= f
	case KindTrace:
		c.Gaps = make([]sim.Time, len(s.Gaps))
		for i, g := range s.Gaps {
			ng := sim.Time(float64(g) / f)
			if ng < 1*sim.Nanosecond {
				ng = 1 * sim.Nanosecond
			}
			c.Gaps[i] = ng
		}
	}
	return &c
}

// New instantiates the process for one of share clients: each client
// carries 1/share of the aggregate load (rates divided, trace gaps
// stretched). rng must be a per-client stream — processes are stateful
// and never shared. The spec must be valid.
func (s *Spec) New(rng *rand.Rand, share int) Process {
	if share < 1 {
		panic("arrival: share must be >= 1")
	}
	f := float64(share)
	switch s.Kind {
	case KindPoisson:
		return NewPoisson(rng, s.Rate/f)
	case KindMMPP:
		return NewMMPP(rng, s.High/f, s.Low/f, s.On, s.Off)
	case KindTrace:
		gaps := make([]sim.Time, len(s.Gaps))
		for i, g := range s.Gaps {
			gaps[i] = g * sim.Time(share)
		}
		return NewTrace(gaps)
	}
	panic("arrival: invalid spec kind")
}

func (s *Spec) String() string {
	switch s.Kind {
	case KindPoisson:
		return fmt.Sprintf("poisson:rate=%g", s.Rate)
	case KindMMPP:
		return fmt.Sprintf("mmpp:high=%g,low=%g,on=%dns,off=%dns", s.High, s.Low, int64(s.On), int64(s.Off))
	case KindTrace:
		parts := make([]string, len(s.Gaps))
		for i, g := range s.Gaps {
			parts[i] = fmt.Sprintf("%dns", int64(g))
		}
		return "trace:gaps=" + strings.Join(parts, "+")
	}
	return "arrival:invalid"
}
