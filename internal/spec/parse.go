package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/sim"
)

// Duration is a sim.Time that reads and writes JSON as a
// suffixed-integer string ("200us", "2ms"), the same grammar the
// -faults and -arrival specs use. Encoding picks the largest unit
// that divides the value exactly, so Canonical is a fixed point:
// every value the encoder emits reparses to the same sim.Time.
type Duration sim.Time

// Time converts back to the simulator clock type.
func (d Duration) Time() sim.Time { return sim.Time(d) }

// MarshalJSON renders the duration in its largest exact unit.
func (d Duration) MarshalJSON() ([]byte, error) {
	if d < 0 {
		return nil, fmt.Errorf("spec: negative duration %d", int64(d))
	}
	t := sim.Time(d)
	unit, suffix := sim.Nanosecond, "ns"
	for _, u := range []struct {
		unit   sim.Time
		suffix string
	}{{sim.Second, "s"}, {sim.Millisecond, "ms"}, {sim.Microsecond, "us"}} {
		if t%u.unit == 0 {
			unit, suffix = u.unit, u.suffix
			break
		}
	}
	return json.Marshal(fmt.Sprintf("%d%s", int64(t/unit), suffix))
}

// UnmarshalJSON parses a suffixed-integer duration string.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("spec: duration must be a string like \"200us\" (ns, us, ms, s)")
	}
	t, err := sim.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	*d = Duration(t)
	return nil
}

// Parse decodes and validates one spec document. Decoding is strict —
// unknown fields and trailing data are errors, and everything lands
// in typed struct fields (no maps), so a parsed spec re-encodes
// deterministically. Every non-error return passes Validate;
// FuzzScenarioSpecParse holds Parse to that contract.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("spec: trailing data after the spec document")
	}
	// A present-but-empty optional list decodes as a non-nil empty
	// slice that omitempty would drop on re-encode; normalize it so
	// Canonical round-trips to an equal spec.
	if len(s.Checks) == 0 {
		s.Checks = nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Canonical renders the spec in its canonical encoding: two-space
// indent, struct field order, trailing newline — the same conventions
// as result.JSON. Parse(Canonical(s)) yields a spec equal to s, and
// re-encoding that spec yields identical bytes; the golden spec files
// under internal/bench/testdata/specs are pinned to this form.
func (s *Spec) Canonical() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
