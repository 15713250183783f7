package fault

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rnic"
	"repro/internal/sim"
)

// Parse builds a plan from a -faults spec. The grammar:
//
//	spec   := "default" | rule (";" rule)*
//	rule   := action "@" start "-" end [":" opt ("," opt)*]
//	action := "fail" | "delay" | "drop" | "blackhole"
//	opt    := "kind=" kinds | "p=" prob | "status=" status
//	        | "x=" factor | "drops=" count
//	kinds  := kind ("+" kind)*      e.g. "cas+faa"; also "atomic", "all"
//	status := "remote-access" | "retry-exceeded"   (fail rules only)
//
// start and end are sim durations with a unit suffix ("2ms", "750us",
// "1500000ns", "1s"); the window is [start, end). Defaults per rule:
// kind=all, p=1, fail status=remote-access, delay x=4, drops=1.
//
// Parse validates what it builds (see NewPlan): windows must be
// non-empty, probabilities in (0, 1], delay factors in (1, 1024],
// drop counts in [1, 16], and rules whose kind masks intersect must
// not overlap in time. Malformed specs return an error, never panic —
// FuzzFaultPlanParse holds the parser to that.
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("fault: empty spec")
	}
	if spec == "default" {
		return Default(), nil
	}
	var rules []Rule
	for i, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("fault: rule %d is empty", i)
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, fmt.Errorf("fault: rule %d %q: %w", i, part, err)
		}
		rules = append(rules, r)
	}
	return NewPlan(rules)
}

func parseRule(s string) (Rule, error) {
	head, opts, hasOpts := strings.Cut(s, ":")
	action, window, ok := strings.Cut(head, "@")
	if !ok {
		return Rule{}, fmt.Errorf("missing '@window' (want action@start-end)")
	}
	r := Rule{Kinds: MaskAll, Prob: 1}
	switch action {
	case "fail":
		r.Action, r.Status = rnic.ActFail, rnic.StatusRemoteAccessErr
	case "delay":
		r.Action, r.Factor = rnic.ActDelay, 4
	case "drop":
		r.Action, r.Drops = rnic.ActDrop, 1
	case "blackhole":
		r.Action = rnic.ActBlackhole
	default:
		return Rule{}, fmt.Errorf("unknown action %q (want fail, delay, drop, or blackhole)", action)
	}

	from, to, ok := strings.Cut(window, "-")
	if !ok {
		return Rule{}, fmt.Errorf("window %q is not start-end", window)
	}
	var err error
	if r.Start, err = sim.ParseDuration(from); err != nil {
		return Rule{}, fmt.Errorf("window start: %w", err)
	}
	if r.End, err = sim.ParseDuration(to); err != nil {
		return Rule{}, fmt.Errorf("window end: %w", err)
	}

	if hasOpts {
		for _, opt := range strings.Split(opts, ",") {
			key, val, ok := strings.Cut(opt, "=")
			if !ok {
				return Rule{}, fmt.Errorf("option %q is not key=value", opt)
			}
			switch key {
			case "kind":
				if r.Kinds, err = parseKinds(val); err != nil {
					return Rule{}, err
				}
			case "p":
				if r.Prob, err = strconv.ParseFloat(val, 64); err != nil {
					return Rule{}, fmt.Errorf("p=%q is not a number", val)
				}
			case "status":
				if r.Action != rnic.ActFail {
					return Rule{}, fmt.Errorf("status= only applies to fail rules")
				}
				switch val {
				case "remote-access":
					r.Status = rnic.StatusRemoteAccessErr
				case "retry-exceeded":
					r.Status = rnic.StatusRetryExceeded
				default:
					return Rule{}, fmt.Errorf("unknown status %q (want remote-access or retry-exceeded)", val)
				}
			case "x":
				if r.Action != rnic.ActDelay {
					return Rule{}, fmt.Errorf("x= only applies to delay rules")
				}
				if r.Factor, err = strconv.ParseFloat(val, 64); err != nil {
					return Rule{}, fmt.Errorf("x=%q is not a number", val)
				}
			case "drops":
				if r.Action != rnic.ActDrop {
					return Rule{}, fmt.Errorf("drops= only applies to drop rules")
				}
				if r.Drops, err = strconv.Atoi(val); err != nil {
					return Rule{}, fmt.Errorf("drops=%q is not an integer", val)
				}
			default:
				return Rule{}, fmt.Errorf("unknown option %q", key)
			}
		}
	}
	return r, nil
}

func parseKinds(s string) (KindMask, error) {
	var m KindMask
	for _, name := range strings.Split(s, "+") {
		switch name {
		case "read":
			m |= MaskRead
		case "write":
			m |= MaskWrite
		case "cas":
			m |= MaskCAS
		case "faa":
			m |= MaskFAA
		case "atomic":
			m |= MaskAtomic
		case "all":
			m |= MaskAll
		default:
			return 0, fmt.Errorf("unknown kind %q (want read, write, cas, faa, atomic, or all)", name)
		}
	}
	return m, nil
}
