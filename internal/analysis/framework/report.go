package framework

import "fmt"

// A Finding is one diagnostic rendered for reporting: positions are
// resolved, and the file path is slash-separated and relative to the
// invocation directory. It is the unit of the JSON report.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the finding in the classic file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// A Report is the machine-readable output of one smartlint run
// (`-format json`): every diagnostic, the suite that produced them,
// and a summary CI can gate on without re-deriving anything.
type Report struct {
	Version   int       `json:"version"`
	Analyzers []string  `json:"analyzers"`
	Findings  []Finding `json:"diagnostics"`
	// Vet is "ok", "failed", or "skipped".
	Vet     string        `json:"vet"`
	Summary ReportSummary `json:"summary"`
}

// ReportSummary is what a CI gate needs: any diagnostic fails it. The
// reviewed-exception path is a //smartlint:ignore directive, which
// suppresses the finding before it is reported.
type ReportSummary struct {
	Total int `json:"total"`
}

// NewReport assembles a report from findings, filling the summary.
func NewReport(analyzers []string, findings []Finding, vet string) *Report {
	r := &Report{Version: 1, Analyzers: analyzers, Findings: findings, Vet: vet}
	if r.Findings == nil {
		r.Findings = []Finding{}
	}
	r.Summary.Total = len(r.Findings)
	return r
}
