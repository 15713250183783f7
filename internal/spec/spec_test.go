package spec

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// minimalMicro returns the smallest valid micro spec, the base most
// mutation cases start from.
func minimalMicro() *Spec {
	return &Spec{
		Version:  Version,
		Name:     "t",
		Scenario: "micro",
		Micro: &Micro{
			Profiles: []Profile{{Name: "base", Policy: "per-thread-doorbell"}},
			Panels: []MicroPanel{{
				ID: "p1", Title: "panel", Op: "read", X: "threads",
				Threads: []int{8}, Batch: []int{8}, Seed: 1,
			}},
		},
	}
}

func mustJSON(t *testing.T, s *Spec) []byte {
	t.Helper()
	b, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// seed reads one of the documents FuzzScenarioSpecParse is seeded from.
func seed(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "seeds", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestParseValidSpec(t *testing.T) {
	s, err := Parse(mustJSON(t, minimalMicro()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Scenario != "micro" || len(s.Micro.Panels) != 1 {
		t.Errorf("parsed spec lost its section: %+v", s)
	}
}

func TestParseRejections(t *testing.T) {
	wrongVersion := minimalMicro()
	wrongVersion.Version = 2
	noSection := minimalMicro()
	noSection.Micro = nil
	twoSections := minimalMicro()
	twoSections.Ablation = &Ablation{}
	badName := minimalMicro()
	badName.Name = "Nope Spaces"

	cases := []struct {
		name string
		data []byte
		want string // substring of the error
	}{
		{"empty", []byte(""), "spec:"},
		{"not json", []byte("{"), "spec:"},
		{"trailing data", append(mustJSON(t, minimalMicro()), []byte("{}")...), "trailing data"},
		{"unknown field", []byte(`{"spec":1,"name":"t","scenario":"micro","bogus":1}`), "bogus"},
		{"json map top level", []byte(`[1,2]`), "spec:"},
		{"wrong version", mustJSON(t, wrongVersion), "version 2 unsupported"},
		{"bad name", mustJSON(t, badName), "want [a-z0-9._-]"},
		{"unknown scenario", []byte(`{"spec":1,"name":"t","scenario":"quantum"}`), "unknown scenario"},
		{"missing section", mustJSON(t, noSection), "needs a \"micro\" section"},
		{"two sections", mustJSON(t, twoSections), "exactly one scenario section"},
		{"arrival on micro", []byte(`{"spec":1,"name":"t","scenario":"micro","arrival":"poisson:rate=4","micro":{"profiles":[{"name":"b","policy":"per-thread-qp"}],"panels":[{"id":"p","title":"x","op":"read","x":"threads","threads":[8],"batch":[8],"seed":1}]}}`), "arrival only applies to serving"},
		{"faults on batching", seed(t, "batching_faults.json"), "faults only apply to micro scenarios"},
		{"bad faults grammar", []byte(`{"spec":1,"name":"t","scenario":"micro","faults":"explode@1ms-2ms","micro":{"profiles":[{"name":"b","policy":"per-thread-qp"}],"panels":[{"id":"p","title":"x","op":"read","x":"threads","threads":[8],"batch":[8],"seed":1}]}}`), "faults"},
		{"bad duration", []byte(`{"spec":1,"name":"t","scenario":"micro","micro":{"profiles":[{"name":"b","policy":"per-thread-qp","update_delta":"400"}],"panels":[{"id":"p","title":"x","op":"read","x":"threads","threads":[8],"batch":[8],"seed":1}]}}`), "unit suffix"},
		{"numeric duration", []byte(`{"spec":1,"name":"t","scenario":"micro","micro":{"profiles":[{"name":"b","policy":"per-thread-qp","update_delta":400}],"panels":[{"id":"p","title":"x","op":"read","x":"threads","threads":[8],"batch":[8],"seed":1}]}}`), "must be a string"},
		{"unknown policy", []byte(`{"spec":1,"name":"t","scenario":"micro","micro":{"profiles":[{"name":"b","policy":"warp-qp"}],"panels":[{"id":"p","title":"x","op":"read","x":"threads","threads":[8],"batch":[8],"seed":1}]}}`), "unknown policy"},
		{"both axes swept", []byte(`{"spec":1,"name":"t","scenario":"micro","micro":{"profiles":[{"name":"b","policy":"per-thread-qp"}],"panels":[{"id":"p","title":"x","op":"read","x":"threads","threads":[8,16],"batch":[8,16],"seed":1}]}}`), "exactly one value"},
		{"zero threads", []byte(`{"spec":1,"name":"t","scenario":"micro","micro":{"profiles":[{"name":"b","policy":"per-thread-qp"}],"panels":[{"id":"p","title":"x","op":"read","x":"threads","threads":[0],"batch":[8],"seed":1}]}}`), "out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.data)
			if err == nil {
				t.Fatal("parse accepted an invalid spec")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q missing %q", err, c.want)
			}
		})
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	s := minimalMicro()
	s.Faults = "default"
	s.Checks = []string{"fig3"}
	first := mustJSON(t, s)
	parsed, err := Parse(first)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, s) {
		t.Errorf("canonical round-trip changed the spec:\n%+v\nvs\n%+v", parsed, s)
	}
	second := mustJSON(t, parsed)
	if !bytes.Equal(first, second) {
		t.Errorf("canonical encoding is not a fixed point:\n%s\nvs\n%s", first, second)
	}
}

func TestEmptyChecksNormalize(t *testing.T) {
	// "checks": [] decodes to an empty non-nil slice that omitempty
	// would drop on re-encode; Parse normalizes it so the round-trip
	// contract holds for specs written by hand.
	data := []byte(`{"spec":1,"name":"t","scenario":"micro","micro":{"profiles":[{"name":"b","policy":"per-thread-qp"}],"panels":[{"id":"p","title":"x","op":"read","x":"threads","threads":[8],"batch":[8],"seed":1}]},"checks":[]}`)
	s, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Checks != nil {
		t.Errorf("empty checks not normalized to nil: %#v", s.Checks)
	}
}

func TestDurationEncoding(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{Duration(0), `"0s"`},
		{Duration(200 * sim.Microsecond), `"200us"`},
		{Duration(2 * sim.Millisecond), `"2ms"`},
		{Duration(3 * sim.Second), `"3s"`},
		{Duration(1500 * sim.Nanosecond), `"1500ns"`},
		{Duration(1500 * sim.Microsecond), `"1500us"`},
	}
	for _, c := range cases {
		b, err := json.Marshal(c.d)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != c.want {
			t.Errorf("marshal %d = %s, want %s", int64(c.d), b, c.want)
		}
		var back Duration
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != c.d {
			t.Errorf("round-trip of %s changed the value: %d vs %d", c.want, int64(back), int64(c.d))
		}
	}
	var d Duration
	for _, bad := range []string{`"-5us"`, `"5"`, `"1e3us"`, `"999999999s"`, `17`, `"us"`} {
		if err := json.Unmarshal([]byte(bad), &d); err == nil {
			t.Errorf("unmarshal accepted %s", bad)
		}
	}
}

func TestProfileOptions(t *testing.T) {
	p := Profile{Name: "x", Policy: "per-thread-doorbell", Throttle: true,
		UpdateDelta: Duration(400 * sim.Microsecond)}
	o, err := p.Options()
	if err != nil {
		t.Fatal(err)
	}
	if !o.WorkReqThrottle || o.UpdateDelta != 400*sim.Microsecond {
		t.Errorf("profile knobs not applied: %+v", o)
	}
	base := core.Baseline(core.PerThreadDoorbell)
	pp := Profile{Name: "y", Policy: "per-thread-doorbell"}
	plain, err := pp.Options()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, base) {
		t.Errorf("plain profile differs from core baseline: %+v vs %+v", plain, base)
	}
	bad := Profile{Name: "z", Policy: "hyper-qp"}
	if _, err := bad.Options(); err == nil {
		t.Error("unknown policy accepted")
	}
}
