package framework

import (
	"encoding/json"
	"testing"
)

func TestReportSummaryAndJSONShape(t *testing.T) {
	findings := []Finding{
		{Analyzer: "cqestatus", File: "a.go", Line: 1, Col: 1, Message: "m"},
		{Analyzer: "pointisolation", File: "b.go", Line: 2, Col: 2, Message: "n"},
	}
	r := NewReport([]string{"cqestatus", "pointisolation"}, findings, "ok")
	if r.Summary.Total != 2 {
		t.Fatalf("summary = %+v", r.Summary)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"version", "analyzers", "diagnostics", "vet", "summary"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("JSON report missing %q key: %s", key, data)
		}
	}
	// An empty report still serializes diagnostics as [], not null —
	// CI consumers index into it unconditionally.
	empty := NewReport(nil, nil, "skipped")
	data, _ = json.Marshal(empty)
	var shape struct {
		Diagnostics []Finding `json:"diagnostics"`
	}
	if err := json.Unmarshal(data, &shape); err != nil || shape.Diagnostics == nil {
		t.Errorf("empty report diagnostics = %s, want []", data)
	}
}
