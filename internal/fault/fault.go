// Package fault is the deterministic fault injector: a Plan of
// windowed rules that perturb simulated RNIC operations — failing them
// with an error status, stretching their wire latency (degraded link),
// dropping request packets so the transport retransmits, or
// blackholing them so only a software watchdog recovers.
//
// Determinism is the design constraint, exactly as for telemetry:
// windows are expressed in sim.Time, the only randomness is the
// per-rule probability draw taken from the engine's seeded RNG at
// submit time, and a draw happens only when a rule's window and kind
// mask actually cover the op — so phases outside every window consume
// no randomness and stay byte-identical to a fault-free run. Rules
// whose kind masks intersect must not overlap in time (Parse and
// NewPlan reject it), so at most one rule ever covers an op and the
// draw count per op is 0 or 1.
package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/rnic"
	"repro/internal/sim"
)

// KindMask selects which op kinds a rule targets, one bit per
// rnic.OpKind.
type KindMask uint8

// Kind masks for each verb and the common unions.
const (
	MaskRead  KindMask = 1 << rnic.OpRead
	MaskWrite KindMask = 1 << rnic.OpWrite
	MaskCAS   KindMask = 1 << rnic.OpCAS
	MaskFAA   KindMask = 1 << rnic.OpFAA

	MaskAtomic = MaskCAS | MaskFAA
	MaskAll    = MaskRead | MaskWrite | MaskAtomic
)

// Has reports whether the mask covers kind.
func (m KindMask) Has(k rnic.OpKind) bool { return m&(1<<k) != 0 }

// String renders the mask as "+"-joined kind names ("read+cas").
func (m KindMask) String() string {
	if m == MaskAll {
		return "all"
	}
	out := ""
	for _, k := range []rnic.OpKind{rnic.OpRead, rnic.OpWrite, rnic.OpCAS, rnic.OpFAA} {
		if !m.Has(k) {
			continue
		}
		if out != "" {
			out += "+"
		}
		out += kindName(k)
	}
	if out == "" {
		return "none"
	}
	return out
}

func kindName(k rnic.OpKind) string {
	switch k {
	case rnic.OpRead:
		return "read"
	case rnic.OpWrite:
		return "write"
	case rnic.OpCAS:
		return "cas"
	default:
		return "faa"
	}
}

// Rule is one injection rule: ops whose kind is in Kinds submitted in
// the window [Start, End) are perturbed with probability Prob.
type Rule struct {
	Start, End sim.Time
	Kinds      KindMask
	Prob       float64 // (0, 1]; 1 = every covered op

	Action rnic.Action
	Status rnic.Status // ActFail: the reported error
	Factor float64     // ActDelay: one-way latency multiplier
	Drops  int         // ActDrop: lost transmissions before one gets through
}

// Covers reports whether the rule applies to an op of the given kind
// submitted at the given time.
func (r *Rule) Covers(k rnic.OpKind, now sim.Time) bool {
	return now >= r.Start && now < r.End && r.Kinds.Has(k)
}

// String renders the rule in the Parse grammar.
func (r *Rule) String() string {
	s := fmt.Sprintf("%s@%s-%s:kind=%s,p=%g", actionName(r.Action), r.Start, r.End, r.Kinds, r.Prob)
	switch r.Action {
	case rnic.ActFail:
		s += ",status=" + r.Status.String()
	case rnic.ActDelay:
		s += fmt.Sprintf(",x=%g", r.Factor)
	case rnic.ActDrop:
		s += fmt.Sprintf(",drops=%d", r.Drops)
	}
	return s
}

func actionName(a rnic.Action) string {
	switch a {
	case rnic.ActFail:
		return "fail"
	case rnic.ActDelay:
		return "delay"
	case rnic.ActDrop:
		return "drop"
	case rnic.ActBlackhole:
		return "blackhole"
	}
	return "none"
}

// Plan is an ordered set of validated, non-overlapping rules. It
// implements rnic.Injector. The zero value (and nil) injects nothing.
type Plan struct {
	rules []Rule
}

// NewPlan validates the rules and returns a plan. The same validation
// Parse applies holds here: see Validate.
func NewPlan(rules []Rule) (*Plan, error) {
	p := &Plan{rules: append([]Rule(nil), rules...)}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustPlan is NewPlan that panics on error, for built-in plans.
func MustPlan(rules []Rule) *Plan {
	p, err := NewPlan(rules)
	if err != nil {
		panic(err)
	}
	return p
}

// Rules returns a copy of the plan's rules in decision order.
func (p *Plan) Rules() []Rule {
	if p == nil {
		return nil
	}
	return append([]Rule(nil), p.rules...)
}

// Envelope returns the earliest window start and latest window end
// across all rules, or (0, 0) for an empty plan. Experiment runners
// derive their baseline/during/recovery phases from it.
func (p *Plan) Envelope() (start, end sim.Time) {
	if p == nil || len(p.rules) == 0 {
		return 0, 0
	}
	start, end = p.rules[0].Start, p.rules[0].End
	for _, r := range p.rules[1:] {
		if r.Start < start {
			start = r.Start
		}
		if r.End > end {
			end = r.End
		}
	}
	return start, end
}

// Decide implements rnic.Injector: the first (and, by validation,
// only) rule covering the op decides its fate, drawing exactly one
// probability sample from rng when the rule is probabilistic. Ops no
// rule covers return the zero verdict without touching rng.
func (p *Plan) Decide(kind rnic.OpKind, now sim.Time, rng *rand.Rand) rnic.Verdict {
	if p == nil {
		return rnic.Verdict{}
	}
	for i := range p.rules {
		r := &p.rules[i]
		if !r.Covers(kind, now) {
			continue
		}
		if r.Prob < 1 && rng.Float64() >= r.Prob {
			return rnic.Verdict{}
		}
		return rnic.Verdict{Action: r.Action, Status: r.Status, Factor: r.Factor, Drops: r.Drops}
	}
	return rnic.Verdict{}
}

// Validation bounds. Factors and drop counts beyond these are almost
// certainly spec typos (and would stall the simulation), so Parse
// rejects rather than clamps them.
const (
	maxRules  = 64
	maxFactor = 1024.0
	maxDrops  = 16
)

func (p *Plan) validate() error {
	if len(p.rules) == 0 {
		return fmt.Errorf("fault: plan has no rules")
	}
	if len(p.rules) > maxRules {
		return fmt.Errorf("fault: %d rules exceeds the limit of %d", len(p.rules), maxRules)
	}
	for i := range p.rules {
		r := &p.rules[i]
		if err := validateRule(r); err != nil {
			return fmt.Errorf("fault: rule %d (%s): %w", i, actionName(r.Action), err)
		}
		for j := 0; j < i; j++ {
			q := &p.rules[j]
			if r.Kinds&q.Kinds != 0 && r.Start < q.End && q.Start < r.End {
				return fmt.Errorf("fault: rules %d and %d overlap on kinds %s in [%s, %s)",
					j, i, r.Kinds&q.Kinds, max(r.Start, q.Start), min(r.End, q.End))
			}
		}
	}
	return nil
}

func validateRule(r *Rule) error {
	if r.Start < 0 || r.End <= r.Start {
		return fmt.Errorf("window [%s, %s) is empty or negative", r.Start, r.End)
	}
	if r.Kinds == 0 || r.Kinds > MaskAll {
		return fmt.Errorf("kind mask %#x selects no valid kinds", uint8(r.Kinds))
	}
	// Positively phrased so NaN (which fails every comparison) is
	// rejected rather than slipping through a negative check.
	if !(r.Prob > 0 && r.Prob <= 1) {
		return fmt.Errorf("probability %g outside (0, 1]", r.Prob)
	}
	switch r.Action {
	case rnic.ActFail:
		if r.Status == rnic.StatusSuccess {
			return fmt.Errorf("fail rule needs a non-success status")
		}
		if r.Status == rnic.StatusTimeout {
			return fmt.Errorf("timeout is the watchdog's verdict, not an injectable card status (use blackhole)")
		}
	case rnic.ActDelay:
		if !(r.Factor > 1 && r.Factor <= maxFactor) {
			return fmt.Errorf("delay factor %g outside (1, %g]", r.Factor, maxFactor)
		}
	case rnic.ActDrop:
		if r.Drops < 1 || r.Drops > maxDrops {
			return fmt.Errorf("drops %d outside [1, %d]", r.Drops, maxDrops)
		}
	case rnic.ActBlackhole:
		// No parameters.
	default:
		return fmt.Errorf("action %d is not injectable", r.Action)
	}
	return nil
}

// Default returns the canonical chaos plan the `chaos` experiment uses
// when no -faults spec is given (spelled "default" in a -faults spec):
// a 2 ms fault window starting at t=2ms that degrades the link 6x,
// then drops request packets, then blackholes a fraction of requests
// (READ/WRITE), while CAS/FAA ops NAK with remote-access errors for
// the whole window — the CAS-conflict storm that drives the §4.3
// controller.
func Default() *Plan {
	return MustPlan([]Rule{
		{Start: 2 * sim.Millisecond, End: 3 * sim.Millisecond,
			Kinds: MaskRead | MaskWrite, Prob: 1,
			Action: rnic.ActDelay, Factor: 6},
		{Start: 3 * sim.Millisecond, End: 3600 * sim.Microsecond,
			Kinds: MaskRead | MaskWrite, Prob: 0.6,
			Action: rnic.ActDrop, Drops: 2},
		{Start: 3600 * sim.Microsecond, End: 4 * sim.Millisecond,
			Kinds: MaskRead | MaskWrite, Prob: 0.15,
			Action: rnic.ActBlackhole},
		{Start: 2 * sim.Millisecond, End: 4 * sim.Millisecond,
			Kinds: MaskAtomic, Prob: 0.7,
			Action: rnic.ActFail, Status: rnic.StatusRemoteAccessErr},
	})
}
