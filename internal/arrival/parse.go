package arrival

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Parse builds a Spec from a -arrival spec string. The grammar:
//
//	spec := kind [":" opt ("," opt)*]
//	kind := "poisson" | "mmpp" | "trace"
//	opt  := "rate=" num            (poisson; ops/us)
//	      | "high=" num            (mmpp; ops/us)
//	      | "low=" num             (mmpp; ops/us, may be 0)
//	      | "on=" dur              (mmpp mean on-phase)
//	      | "off=" dur             (mmpp mean off-phase)
//	      | "gaps=" dur ("+" dur)* (trace inter-arrival gaps)
//
// Durations take a unit suffix (ns, us, ms, s), as in -faults specs.
// Defaults: poisson rate=4; mmpp high=8, low=1, on=200us, off=600us;
// trace has no default gaps — gaps= is mandatory. Examples:
//
//	poisson:rate=4
//	mmpp:high=8,low=1,on=200us,off=600us
//	trace:gaps=100ns+2us+500ns
//
// Malformed specs return an error, never panic — FuzzArrivalSpecParse
// holds the parser to that, and every returned Spec passes Validate.
func Parse(spec string) (*Spec, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("arrival: empty spec")
	}
	kind, opts, hasOpts := strings.Cut(spec, ":")
	var s Spec
	var seenGaps bool
	switch kind {
	case "poisson":
		s = Spec{Kind: KindPoisson, Rate: 4}
	case "mmpp":
		s = Spec{Kind: KindMMPP, High: 8, Low: 1, On: 200 * sim.Microsecond, Off: 600 * sim.Microsecond}
	case "trace":
		s = Spec{Kind: KindTrace}
	default:
		return nil, fmt.Errorf("arrival: unknown kind %q (want poisson, mmpp, or trace)", kind)
	}
	if hasOpts {
		for _, opt := range strings.Split(opts, ",") {
			key, val, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("arrival: option %q is not key=value", opt)
			}
			var err error
			switch {
			case key == "rate" && s.Kind == KindPoisson:
				s.Rate, err = parseRate(key, val)
			case key == "high" && s.Kind == KindMMPP:
				s.High, err = parseRate(key, val)
			case key == "low" && s.Kind == KindMMPP:
				s.Low, err = parseRate(key, val)
			case key == "on" && s.Kind == KindMMPP:
				s.On, err = sim.ParseDuration(val)
			case key == "off" && s.Kind == KindMMPP:
				s.Off, err = sim.ParseDuration(val)
			case key == "gaps" && s.Kind == KindTrace:
				s.Gaps, err = parseGaps(val)
				seenGaps = true
			default:
				return nil, fmt.Errorf("arrival: option %q does not apply to %s specs", key, s.Kind)
			}
			if err != nil {
				return nil, fmt.Errorf("arrival: %w", err)
			}
		}
	}
	if s.Kind == KindTrace && !seenGaps {
		return nil, fmt.Errorf("arrival: trace specs need gaps=dur+dur+...")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func parseRate(key, val string) (float64, error) {
	r, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("%s=%q is not a number", key, val)
	}
	return r, nil
}

func parseGaps(val string) ([]sim.Time, error) {
	parts := strings.Split(val, "+")
	gaps := make([]sim.Time, 0, len(parts))
	for _, p := range parts {
		g, err := sim.ParseDuration(p)
		if err != nil {
			return nil, err
		}
		gaps = append(gaps, g)
	}
	return gaps, nil
}
