package perf

import (
	"os"
	"path/filepath"
	"testing"
)

func rec(pps float64, kernel ...PathStats) *Record {
	return &Record{Schema: SchemaVersion, PointsPerSec: pps, Kernel: kernel}
}

func TestGateNilBaselinePasses(t *testing.T) {
	if v := Gate(nil, rec(10), 0.25); v != nil {
		t.Fatalf("nil baseline gated: %v", v)
	}
}

func TestGateSweepThroughput(t *testing.T) {
	base := rec(100)
	if v := Gate(base, rec(100), 0.25); len(v) != 0 {
		t.Fatalf("equal throughput flagged: %v", v)
	}
	if v := Gate(base, rec(80), 0.25); len(v) != 0 {
		t.Fatalf("within-tolerance dip flagged: %v", v)
	}
	if v := Gate(base, rec(74), 0.25); len(v) != 1 {
		t.Fatalf("26%% regression not flagged: %v", v)
	}
	if v := Gate(base, rec(300), 0.25); len(v) != 0 {
		t.Fatalf("improvement flagged: %v", v)
	}
}

func TestGateKernelPaths(t *testing.T) {
	base := rec(100, PathStats{Path: "schedule", EventsPerSec: 1e6})
	cur := rec(100, PathStats{Path: "schedule", EventsPerSec: 7e5})
	if v := Gate(base, cur, 0.25); len(v) != 1 {
		t.Fatalf("kernel regression not flagged: %v", v)
	}
	// Paths present in only one record are ignored, not violations.
	cur = rec(100, PathStats{Path: "brand-new-path", EventsPerSec: 1})
	if v := Gate(base, cur, 0.25); len(v) != 0 {
		t.Fatalf("unmatched path flagged: %v", v)
	}
}

func TestGateSchemaMismatch(t *testing.T) {
	base := rec(100)
	cur := rec(100)
	cur.Schema = SchemaVersion + 1
	if v := Gate(base, cur, 0.25); len(v) != 1 {
		t.Fatalf("schema mismatch not flagged: %v", v)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	r := &Record{
		Schema: SchemaVersion, Bench: 7, Workers: 4, Quick: true,
		Experiments: []Experiment{
			{ID: "fig3", Points: 10, WallMS: 1234, PointsPerSec: PerSec(10, 1234)},
		},
		TotalPoints: 10, TotalWallMS: 1234, PointsPerSec: PerSec(10, 1234),
		Kernel:    []PathStats{{Path: "schedule", Events: 5, EventsPerSec: 1e6, NsPerEvent: 1000}},
		KernelPre: []PathStats{{Path: "schedule", Events: 5, EventsPerSec: 5e5, NsPerEvent: 2000}},
	}
	if err := r.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bench != 7 || got.Workers != 4 || !got.Quick || len(got.Experiments) != 1 ||
		len(got.Kernel) != 1 || len(got.KernelPre) != 1 || got.Kernel[0].Path != "schedule" {
		t.Fatalf("round trip lost fields: %+v", got)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("Load of a missing file succeeded")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(bad, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("Load of malformed JSON succeeded")
	}
}

func TestPerSec(t *testing.T) {
	if got := PerSec(10, 2000); got != 5 {
		t.Fatalf("PerSec(10, 2000) = %v, want 5", got)
	}
	if got := PerSec(3, 0); got != 3000 {
		t.Fatalf("PerSec(3, 0) = %v, want 3000 (sub-ms rounds to 1ms)", got)
	}
}

func TestMeasureKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("timing workload")
	}
	stats := MeasureKernel()
	if len(stats) != 4 {
		t.Fatalf("MeasureKernel returned %d paths, want 4", len(stats))
	}
	for _, s := range stats {
		if s.Events == 0 || s.EventsPerSec <= 0 || s.NsPerEvent <= 0 {
			t.Fatalf("path %q: degenerate stats %+v", s.Path, s)
		}
		// The refactor's whole point: the kernel hot paths allocate
		// (nearly) nothing. The doorbell path sits above them in the
		// verbs layer and allocates its WRs by design; it gets a looser
		// ceiling that still catches a per-event allocation creeping in.
		ceiling := 0.1
		if s.Path == "doorbell" {
			ceiling = 1.0
		}
		if s.AllocsPerEvent > ceiling {
			t.Fatalf("path %q allocates %.3f allocs/event, want <= %.1f", s.Path, s.AllocsPerEvent, ceiling)
		}
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestGateKernelAllocs(t *testing.T) {
	base := rec(100, PathStats{Path: "doorbell", EventsPerSec: 1e6, AllocsPerEvent: 0.152})
	for _, c := range []struct {
		allocs float64
		fails  bool
	}{
		{0.152, false},
		{0.152 + AllocSlack/2, false},
		{0.1, false},
		{0.152 + 2*AllocSlack, true},
		{1.152, true},
	} {
		cur := rec(100, PathStats{Path: "doorbell", EventsPerSec: 1e6, AllocsPerEvent: c.allocs})
		if v := Gate(base, cur, 0.25); (len(v) == 1) != c.fails || len(v) > 1 {
			t.Errorf("allocs/event %v against baseline 0.152: violations %v, want failing=%v", c.allocs, v, c.fails)
		}
	}
}
