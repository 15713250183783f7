package telemetry

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/result"
	"repro/internal/sim"
)

func TestCounterRegistrationOrder(t *testing.T) {
	r := New()
	r.Counter("b").Set(2)
	r.Counter("a").Set(1)
	r.Counter("b").Set(3) // same handle, not a new registration

	if got := r.Value("b"); got != 3 {
		t.Errorf("Value(b) = %d, want 3", got)
	}
	if got := r.Value("a"); got != 1 {
		t.Errorf("Value(a) = %d, want 1", got)
	}
	if got := r.Value("missing"); got != 0 {
		t.Errorf("Value(missing) = %d, want 0", got)
	}

	tabs := r.Tables()
	if len(tabs) != 1 {
		t.Fatalf("Tables: got %d tables, want 1", len(tabs))
	}
	ct := tabs[0]
	if ct.ID != "counters" {
		t.Errorf("counters table ID = %q", ct.ID)
	}
	pts := ct.Points("value")
	if len(pts) != 2 {
		t.Fatalf("counters rows = %d, want 2", len(pts))
	}
	// Registration order, not alphabetical: b was registered first.
	if pts[0].Label != "b" || pts[0].Value != 3 {
		t.Errorf("row 0 = %q/%v, want b/3", pts[0].Label, pts[0].Value)
	}
	if pts[1].Label != "a" || pts[1].Value != 1 {
		t.Errorf("row 1 = %q/%v, want a/1", pts[1].Label, pts[1].Value)
	}
}

func TestCounterSetIdempotent(t *testing.T) {
	r := New()
	c := r.Counter("engine/parks")
	c.Set(10)
	c.Set(10) // double harvest must not double-count
	if c.Value() != 10 {
		t.Errorf("after two Set(10): %d", c.Value())
	}
}

func TestGroupSeriesAndTables(t *testing.T) {
	r := New()
	g := r.Group("cmax", "C_max trajectory", "time")
	g.XUnit, g.YUnit = "us", ""
	g.Def("t0", "", 0)
	g.Add("t0", 0, 8)
	g.Add("t0", 400, 6)
	g.Add("t1", 0, 8) // undeclared: takes the table's precision
	if r.Group("cmax", "other title", "x") != g {
		t.Error("second Group call returned a different table")
	}

	tabs := r.Tables()
	if len(tabs) != 1 {
		t.Fatalf("Tables: got %d, want 1 (no counters registered)", len(tabs))
	}
	tab := tabs[0]
	if tab.ID != "cmax" || tab.Title != "C_max trajectory" {
		t.Errorf("group table ID/title = %q/%q, want cmax/C_max trajectory", tab.ID, tab.Title)
	}
	if tab.XUnit != "us" {
		t.Errorf("XUnit = %q", tab.XUnit)
	}
	p := tab.Points("t0")
	if len(p) != 2 || p[1].X != 400 || p[1].Value != 6 {
		t.Errorf("t0 points = %+v", p)
	}
	if tab.Series[0].Prec != 0 || tab.Series[1].Prec != tab.Prec {
		t.Errorf("precisions = %d/%d, want 0 (declared) and %d (table's)", tab.Series[0].Prec, tab.Series[1].Prec, tab.Prec)
	}
}

// TestGroupsExportInRegistrationOrder: group tables follow the counters
// table in the order they were first registered, not by ID.
func TestGroupsExportInRegistrationOrder(t *testing.T) {
	r := New()
	r.Group("zeta", "Z", "x").Add("s", 0, 1)
	r.Counter("ops").Set(1)
	r.Group("alpha", "A", "x").Add("s", 0, 2)
	r.Group("zeta", "Z again", "x").Add("s", 1, 3)

	var ids []string
	for _, tab := range r.Tables() {
		ids = append(ids, tab.ID)
	}
	if want := []string{"counters", "zeta", "alpha"}; !slices.Equal(ids, want) {
		t.Errorf("exported IDs %v, want %v", ids, want)
	}
	if n := len(r.Group("zeta", "", "").Points("s")); n != 2 {
		t.Errorf("zeta holds %d points, want both writes", n)
	}
}

// TestTablesIsSnapshot: an export is the caller's to change. Writing
// into one export's tables, series and points must not reach the
// registry, so a second export still shows what was recorded.
func TestTablesIsSnapshot(t *testing.T) {
	r := New()
	r.Counter("ops").Set(3)
	g := r.Group("traj", "trajectory", "t")
	g.Def("v", "", 0)
	g.Add("v", 0, 1)
	g.Add("v", 1, 2)
	render := func(tabs []result.Table) string {
		var buf bytes.Buffer
		result.Text(&buf, tabs)
		return buf.String()
	}
	want := render(r.Tables())

	first := r.Tables()
	traj := result.Find(first, "traj")
	traj.Series[0].Points[0].Value = 99
	traj.Series[0].Points = append(traj.Series[0].Points, result.Point{X: 2, Value: 3})
	traj.Add("w", 0, 7)
	traj.Title = "changed"
	first[0].Series[0].Points[0].Value = 42

	if got := render(r.Tables()); got != want {
		t.Errorf("changing an export wrote into the registry:\n--- before\n%s\n--- after\n%s", want, got)
	}
	// Nor does recording after an export reach it: traj holds the two
	// recorded points and the one appended above.
	g.Add("v", 2, 4)
	if n := len(traj.Points("v")); n != 3 {
		t.Errorf("export has %d points after a later Add, want 3", n)
	}
}

// TestTablesDeterministic builds the same registry twice through
// different call sequences that register in the same order, and
// requires byte-identical rendering — the property the CI
// determinism job enforces end to end.
func TestTablesDeterministic(t *testing.T) {
	build := func() *Registry {
		r := New()
		r.Counter("db/rings-total").Set(7)
		r.Counter("nic/completed").Set(41)
		g := r.Group("gamma", "Retry rate", "window")
		g.Def("gamma", "", 3)
		g.Add("gamma", 1, 0.25)
		g.Def("gamma", "", 3)
		g.Add("gamma", 2, 0.5)
		return r
	}
	render := func(r *Registry) []byte {
		doc := &result.Document{Generator: "test", Experiments: []result.Experiment{
			{ID: "x", Title: "x", Tables: r.Tables()},
		}}
		var buf bytes.Buffer
		if err := result.JSON(&buf, doc); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(build()), render(build())
	if !bytes.Equal(a, b) {
		t.Errorf("same registry rendered differently:\n%s\n---\n%s", a, b)
	}
}

func TestTraceRing(t *testing.T) {
	tr := NewTrace(3)
	tr.Emit(1*sim.Nanosecond, "a", "")
	tr.Emit(2*sim.Nanosecond, "b", "x")
	got := tr.Events()
	if len(got) != 2 || got[0].Kind != "a" || got[1].Kind != "b" {
		t.Fatalf("partial ring events = %+v", got)
	}

	tr.Emit(3*sim.Nanosecond, "c", "")
	tr.Emit(4*sim.Nanosecond, "d", "") // evicts a
	tr.Emit(5*sim.Nanosecond, "e", "") // evicts b
	got = tr.Events()
	if len(got) != 3 {
		t.Fatalf("full ring len = %d, want 3", len(got))
	}
	if got[0].Kind != "c" || got[1].Kind != "d" || got[2].Kind != "e" {
		t.Errorf("ring order wrong: %+v", got)
	}
	if got[0].At != 3 || got[2].At != 5 {
		t.Errorf("timestamps wrong: %+v", got)
	}
	if tr.Total() != 5 {
		t.Errorf("Total = %d, want 5", tr.Total())
	}

	var buf bytes.Buffer
	tr.Write(&buf)
	out := buf.String()
	if want := "trace: 5 events emitted, last 3 retained\n"; !bytes.HasPrefix(buf.Bytes(), []byte(want)) {
		t.Errorf("Write header wrong:\n%s", out)
	}
}

func TestTraceMinCapacity(t *testing.T) {
	tr := NewTrace(0) // clamped to a capacity of 1
	tr.Emit(1*sim.Nanosecond, "a", "")
	tr.Emit(2*sim.Nanosecond, "b", "")
	got := tr.Events()
	if len(got) != 1 || got[0].Kind != "b" {
		t.Errorf("events = %+v, want just b", got)
	}
}

func TestNilRegistrySafety(t *testing.T) {
	var r *Registry
	if r.Tracing() {
		t.Error("nil registry reports Tracing")
	}
	r.Emit(1*sim.Nanosecond, "a", "") // must not panic
	if r.Trace() != nil {
		t.Error("nil registry has a trace")
	}

	r2 := New()
	if r2.Tracing() {
		t.Error("fresh registry reports Tracing")
	}
	r2.Emit(1*sim.Nanosecond, "a", "") // dropped, no panic
	tr := r2.EnableTrace(4)
	if !r2.Tracing() || r2.Trace() != tr {
		t.Error("EnableTrace did not attach")
	}
	r2.Emit(2*sim.Nanosecond, "b", "")
	if tr.Total() != 1 {
		t.Errorf("Total = %d, want 1 (pre-enable emit dropped)", tr.Total())
	}
}

// TestRegistryPerPointIsolation is the sweep scheduler's telemetry
// contract made concrete: N registries written concurrently — one per
// goroutine, the way each sweep point owns exactly one registry — must
// export the same bytes as the same writes applied sequentially. The
// registry itself is unsynchronized on purpose; run under -race this
// test proves the one-registry-per-point discipline needs no locks,
// and that per-blade prefixes namespace collectors within a point
// without touching any cross-registry state.
func TestRegistryPerPointIsolation(t *testing.T) {
	fill := func(r *Registry, point int) {
		pre := fmt.Sprintf("b%d/", point%3)
		r.Counter(pre + "ops").Set(uint64(100 + point))
		r.Counter(pre + "retries").Set(uint64(point))
		g := r.Group("traj", "trajectory", "t")
		g.Def("v", "", 0)
		for x := 0; x < 4; x++ {
			g.Add("v", float64(x), float64(point*10+x))
		}
		r.Emit(sim.Time(point)*sim.Microsecond, "op-end", pre)
	}
	render := func(r *Registry) string {
		var buf bytes.Buffer
		result.Text(&buf, r.Tables())
		return buf.String()
	}

	const points = 16
	seq := make([]string, points)
	for i := 0; i < points; i++ {
		r := New()
		r.EnableTrace(8)
		fill(r, i)
		seq[i] = render(r)
	}

	regs := make([]*Registry, points)
	var wg sync.WaitGroup
	for i := 0; i < points; i++ {
		regs[i] = New()
		regs[i].EnableTrace(8)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fill(regs[i], i)
		}(i)
	}
	wg.Wait()
	for i := 0; i < points; i++ {
		if got := render(regs[i]); got != seq[i] {
			t.Errorf("point %d: concurrent fill exported different bytes:\n--- sequential\n%s\n--- concurrent\n%s", i, seq[i], got)
		}
		if n := regs[i].Trace().Total(); n != 1 {
			t.Errorf("point %d: trace total = %d, want 1", i, n)
		}
	}
}
