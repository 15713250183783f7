// Package spec defines the declarative scenario-spec layer: a
// versioned, validated JSON description of a full experiment —
// arrival process, fault plan, batching template, thread/blade
// topology, sweep grids — that bench.FromSpec lowers onto the
// internal/sweep point model and smartbench -spec runs exactly like a
// hand-written runner (DESIGN.md §17).
//
// The package is schema only — the types, Parse, Validate, Canonical —
// and knows nothing of how a spec executes: it imports the leaf
// grammars it validates against and never the runner, sweep,
// telemetry, or result packages (CI pins that), so the fuzz target
// holds Parse/Validate without linking the simulator.
//
// A spec is data, not code: opening a new experiment variant means
// writing a JSON file, not a new Go runner. The three CLI template
// grammars are embedded as leaf sub-specs — the "faults", "arrival",
// and "batching" fields hold fault.Parse / arrival.Parse /
// verbs.ParseBatching strings — so one spec file carries everything a
// reproduction needs: scenario + grids + seeds + templates + the
// shape checks that gate it.
//
// Determinism contract: decoding is map-free (typed structs only,
// unknown fields rejected), so Canonical is a fixed point — the
// canonical encoding of a parsed spec reparses to an equal spec and
// re-encodes to identical bytes. The checked-in golden specs under
// internal/bench/testdata/specs/ are canonical, and
// FuzzScenarioSpecParse holds Parse to validated-or-error plus the
// round-trip contract.
package spec

import (
	"fmt"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/verbs"
)

// Version is the schema version this package reads and writes. Specs
// carry it in their "spec" field; any other value is rejected, so a
// future schema change is an explicit migration, never a silent
// reinterpretation.
const Version = 1

// Enumeration bounds. They keep hand-written and fuzzed specs inside
// the ranges the simulated cluster (and a CI budget) can absorb;
// every limit is far above anything the paper's figures sweep.
const (
	maxThreads  = 1024
	maxBatch    = 1 << 16
	maxRuntimes = 64
	maxClients  = 4096
	maxAxisLen  = 256
	maxPanels   = 64
	maxProfiles = 64
	maxChecks   = 32
	maxNameLen  = 64
	maxLoadFrac = 100.0
	maxCapacity = 1000.0 // ops/us per thread; mirrors arrival's rate cap
)

// Spec is one declarative experiment. Exactly one scenario section
// (Micro, Serving, or Ablation) must be present, matching the
// Scenario field.
type Spec struct {
	// Version must equal the package Version (field name "spec").
	Version int `json:"spec"`

	// Name identifies the run: it becomes the experiment ID in result
	// documents and progress lines ([a-z0-9._-], max 64 chars).
	Name string `json:"name"`

	// Title is the human-readable experiment title (optional; Name is
	// used when empty).
	Title string `json:"title,omitempty"`

	// Scenario selects the lowering: "micro" (fig3/fig13-style panel
	// grids over the §3.1 bench tool), "serving" (the open-loop
	// capacity sweep over internal/serve), or "batching" (the WR
	// postlist + doorbell-coalescing ablation).
	Scenario string `json:"scenario"`

	// Faults is an embedded fault-plan sub-spec (fault.Parse grammar:
	// "default" or rule lists). It installs the plan on every point's
	// compute RNIC. Applies to micro scenarios only.
	Faults string `json:"faults,omitempty"`

	// Arrival is an embedded arrival-process sub-spec (arrival.Parse
	// grammar). It is the template the serving sweep rescales per
	// point; empty selects the calibrated Poisson default. Applies to
	// the serving scenario only.
	Arrival string `json:"arrival,omitempty"`

	// Batching is an embedded WR-batching sub-spec
	// (verbs.ParseBatching grammar). For micro scenarios it applies
	// verbatim to every point; for the batching scenario it is the
	// knob template whose batch=/deadline= overrides apply to the
	// swept modes (the mode axis itself is what the ablation sweeps).
	// Does not apply to serving.
	Batching string `json:"batching,omitempty"`

	// Micro is the panel-grid section ("micro" scenario).
	Micro *Micro `json:"micro,omitempty"`

	// Serving is the open-loop capacity section ("serving" scenario).
	Serving *Serving `json:"serving,omitempty"`

	// Ablation is the batching-ablation section ("batching" scenario).
	Ablation *Ablation `json:"ablation,omitempty"`

	// Checks names the shape-check groups (internal/bench experiment
	// IDs, e.g. "fig3") that smartbench -spec -check asserts over the
	// compiled tables.
	Checks []string `json:"checks,omitempty"`
}

// Micro describes a fig3/fig13-style sweep: a set of named runtime
// profiles (the series) crossed with per-panel thread or batch grids
// (the rows), one table per panel, measuring READ/WRITE MOPS on the
// §3.1 micro-benchmark.
type Micro struct {
	Profiles []Profile    `json:"profiles"`
	Panels   []MicroPanel `json:"panels"`
}

// Profile is one named runtime configuration — a QP-allocation policy
// baseline plus the optional §4.2 throttling knobs.
type Profile struct {
	// Name labels the profile's series in every panel.
	Name string `json:"name"`
	// Policy is a core QP-allocation policy by its canonical name:
	// shared-qp, multiplexed-qp, per-thread-qp, per-thread-context, or
	// per-thread-doorbell.
	Policy string `json:"policy"`
	// Throttle enables §4.2 adaptive work-request throttling.
	Throttle bool `json:"throttle,omitempty"`
	// UpdateDelta overrides the throttling controller's per-candidate
	// measuring window Δ.
	UpdateDelta Duration `json:"update_delta,omitempty"`
}

// Options resolves the profile onto a core.Options value.
func (p *Profile) Options() (core.Options, error) {
	pol, err := core.ParsePolicy(p.Policy)
	if err != nil {
		return core.Options{}, err
	}
	o := core.Baseline(pol)
	if p.Throttle {
		o.WorkReqThrottle = true
	}
	if p.UpdateDelta > 0 {
		o.UpdateDelta = p.UpdateDelta.Time()
	}
	return o, nil
}

// MicroPanel is one table of a micro scenario: an x-axis (threads or
// batch), the grid along it, and the fixed value of the other axis.
type MicroPanel struct {
	// ID and Title name the result table.
	ID    string `json:"id"`
	Title string `json:"title"`
	// Op is the posted verb: "read" or "write".
	Op string `json:"op"`
	// X selects the swept axis: "threads" or "batch". The swept list
	// provides the table rows; the other list must hold exactly one
	// value.
	X       string `json:"x"`
	Threads []int  `json:"threads"`
	Batch   []int  `json:"batch"`
	// Seed is the panel's base workload seed; the CLI's -seed offsets
	// it, exactly as it offsets the built-in runners.
	Seed int64 `json:"seed"`
}

// Serving describes the open-loop capacity sweep: a topology ×
// load-fraction grid with load expressed as a fraction of calibrated
// nominal capacity, plus the optional burstiness panel and the
// instrumented overload point.
type Serving struct {
	// CapacityPerThread is the calibrated steady-state capacity of one
	// serving thread in ops/us; load fraction 1.0 sits at the knee.
	CapacityPerThread float64 `json:"capacity_per_thread"`
	// TxnFrac is the fraction of requests that are READ+FAA
	// transactions rather than plain READs.
	TxnFrac float64 `json:"txn_frac"`

	Topologies []Topo    `json:"topologies"`
	LoadFracs  []float64 `json:"load_fracs"`

	Warmup  Duration `json:"warmup"`
	Measure Duration `json:"measure"`
	Seed    int64    `json:"seed"`

	// Breakdown selects the topology whose latency split
	// (op/txn/wait/service percentiles) gets its own table; it must be
	// one of Topologies.
	Breakdown Topo `json:"breakdown"`

	// Burst, when present, adds the burstiness panel: each named
	// arrival process at matched mean rate on one small topology.
	Burst *Burst `json:"burst,omitempty"`

	// Overload, when present, is the instrumented point an -telemetry
	// run adds: one overloaded topology carrying the registry.
	Overload *Overload `json:"overload,omitempty"`
}

// Topo is one blade/thread configuration of the serving grid.
type Topo struct {
	Runtimes int `json:"runtimes"` // compute blades = memory blades
	Threads  int `json:"threads"`  // per runtime
}

// Label renders the topology as the tables and checks name it.
func (t Topo) Label() string { return fmt.Sprintf("%dx%d", t.Runtimes, t.Threads) }

// Burst is the serving burstiness panel: arrival processes compared at
// matched mean rate on one topology, with a fixed client-machine
// count (one client keeps MMPP on-phases fully correlated).
type Burst struct {
	Topology Topo           `json:"topology"`
	Fracs    []float64      `json:"fracs"`
	Arrivals []NamedArrival `json:"arrivals"`
	Clients  int            `json:"clients"`
}

// NamedArrival pairs a series name with an embedded arrival sub-spec.
type NamedArrival struct {
	Name string `json:"name"`
	Spec string `json:"spec"`
}

// Overload is the serving scenario's instrumented point: the swept
// template at Frac times the topology's nominal capacity, carrying
// the telemetry registry.
type Overload struct {
	Topology Topo    `json:"topology"`
	Frac     float64 `json:"frac"`
}

// Ablation describes the batching ablation: the four submission modes
// (off/postlist/coalesce/both) swept over post-batch depth and thread
// count, plus the §4.2 C_max coupling panel.
type Ablation struct {
	// Batches is the post-batch depth grid of the depth panel.
	Batches []int `json:"batches"`
	// Threads is the thread grid of the thread panel.
	Threads []int `json:"threads"`
	// FixedThreads pins the thread count of the depth and C_max
	// panels; FixedBatch pins the post batch (and the coalesce
	// threshold) of the thread panel.
	FixedThreads int `json:"fixed_threads"`
	FixedBatch   int `json:"fixed_batch"`

	// Per-panel base workload seeds (offset by the CLI's -seed).
	DepthSeed  int64 `json:"depth_seed"`
	ThreadSeed int64 `json:"thread_seed"`
	CMaxSeed   int64 `json:"cmax_seed"`

	// CMaxCoalesceBatch is the C_max panel's coalesce threshold — kept
	// inside the §4.2 candidate range so flush-by-full is reachable
	// exactly when the controller grants enough credits.
	CMaxCoalesceBatch int `json:"cmax_coalesce_batch"`
	// CMaxUpdateDelta is the C_max panel's controller window Δ.
	CMaxUpdateDelta Duration `json:"cmax_update_delta"`
}

// Validate checks the spec's structure and every embedded sub-spec.
// All numeric checks are phrased positively so NaN fails them, the
// same discipline as the fault/arrival validators.
func (s *Spec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("spec: version %d unsupported (want \"spec\": %d)", s.Version, Version)
	}
	if err := validateName("name", s.Name); err != nil {
		return err
	}

	sections := 0
	for _, present := range []bool{s.Micro != nil, s.Serving != nil, s.Ablation != nil} {
		if present {
			sections++
		}
	}
	var want string
	switch s.Scenario {
	case "micro":
		want = "micro"
		if s.Micro == nil {
			return fmt.Errorf("spec: micro scenario needs a \"micro\" section")
		}
	case "serving":
		want = "serving"
		if s.Serving == nil {
			return fmt.Errorf("spec: serving scenario needs a \"serving\" section")
		}
	case "batching":
		want = "ablation"
		if s.Ablation == nil {
			return fmt.Errorf("spec: batching scenario needs an \"ablation\" section")
		}
	default:
		return fmt.Errorf("spec: unknown scenario %q (want micro, serving, or batching)", s.Scenario)
	}
	if sections != 1 {
		return fmt.Errorf("spec: exactly one scenario section allowed (the %q scenario reads only %q)", s.Scenario, want)
	}

	// Embedded sub-specs: leaf-decoded by their own grammars, and only
	// where the scenario can apply them.
	if s.Faults != "" {
		if s.Scenario != "micro" {
			return fmt.Errorf("spec: faults only apply to micro scenarios")
		}
		if _, err := fault.Parse(s.Faults); err != nil {
			return fmt.Errorf("spec: faults: %w", err)
		}
	}
	if s.Arrival != "" {
		if s.Scenario != "serving" {
			return fmt.Errorf("spec: arrival only applies to serving scenarios")
		}
		if _, err := arrival.Parse(s.Arrival); err != nil {
			return fmt.Errorf("spec: arrival: %w", err)
		}
	}
	if s.Batching != "" {
		if s.Scenario == "serving" {
			return fmt.Errorf("spec: batching does not apply to serving scenarios")
		}
		if _, err := verbs.ParseBatching(s.Batching); err != nil {
			return fmt.Errorf("spec: batching: %w", err)
		}
	}

	if len(s.Checks) > maxChecks {
		return fmt.Errorf("spec: %d checks, max %d", len(s.Checks), maxChecks)
	}
	for i, c := range s.Checks {
		if err := validateName(fmt.Sprintf("checks[%d]", i), c); err != nil {
			return err
		}
	}

	switch s.Scenario {
	case "micro":
		return s.Micro.validate()
	case "serving":
		return s.Serving.validate()
	case "batching":
		return s.Ablation.validate()
	}
	return nil
}

func (m *Micro) validate() error {
	if len(m.Profiles) == 0 {
		return fmt.Errorf("spec: micro needs at least one profile")
	}
	if len(m.Profiles) > maxProfiles {
		return fmt.Errorf("spec: %d profiles, max %d", len(m.Profiles), maxProfiles)
	}
	seen := map[string]bool{}
	for i, p := range m.Profiles {
		if p.Name == "" {
			return fmt.Errorf("spec: profile %d has no name", i)
		}
		if seen[p.Name] {
			return fmt.Errorf("spec: duplicate profile name %q", p.Name)
		}
		seen[p.Name] = true
		if _, err := core.ParsePolicy(p.Policy); err != nil {
			return fmt.Errorf("spec: profile %q: %w", p.Name, err)
		}
		if !(p.UpdateDelta >= 0) {
			return fmt.Errorf("spec: profile %q: negative update_delta", p.Name)
		}
	}
	if len(m.Panels) == 0 {
		return fmt.Errorf("spec: micro needs at least one panel")
	}
	if len(m.Panels) > maxPanels {
		return fmt.Errorf("spec: %d panels, max %d", len(m.Panels), maxPanels)
	}
	ids := map[string]bool{}
	for i := range m.Panels {
		p := &m.Panels[i]
		if err := validateName(fmt.Sprintf("panels[%d].id", i), p.ID); err != nil {
			return err
		}
		if ids[p.ID] {
			return fmt.Errorf("spec: duplicate panel id %q", p.ID)
		}
		ids[p.ID] = true
		if p.Title == "" {
			return fmt.Errorf("spec: panel %q has no title", p.ID)
		}
		if p.Op != "read" && p.Op != "write" {
			return fmt.Errorf("spec: panel %q: op %q (want read or write)", p.ID, p.Op)
		}
		var swept, fixed []int
		var sweptName, fixedName string
		switch p.X {
		case "threads":
			swept, fixed, sweptName, fixedName = p.Threads, p.Batch, "threads", "batch"
		case "batch":
			swept, fixed, sweptName, fixedName = p.Batch, p.Threads, "batch", "threads"
		default:
			return fmt.Errorf("spec: panel %q: x %q (want threads or batch)", p.ID, p.X)
		}
		if len(swept) == 0 {
			return fmt.Errorf("spec: panel %q: empty %s grid", p.ID, sweptName)
		}
		if len(swept) > maxAxisLen {
			return fmt.Errorf("spec: panel %q: %d %s values, max %d", p.ID, len(swept), sweptName, maxAxisLen)
		}
		if len(fixed) != 1 {
			return fmt.Errorf("spec: panel %q: %s is the swept axis, so %s must hold exactly one value", p.ID, sweptName, fixedName)
		}
		for _, n := range p.Threads {
			if !(n >= 1 && n <= maxThreads) {
				return fmt.Errorf("spec: panel %q: threads %d out of range [1, %d]", p.ID, n, maxThreads)
			}
		}
		for _, b := range p.Batch {
			if !(b >= 1 && b <= maxBatch) {
				return fmt.Errorf("spec: panel %q: batch %d out of range [1, %d]", p.ID, b, maxBatch)
			}
		}
	}
	return nil
}

func (t Topo) validate(where string) error {
	if !(t.Runtimes >= 1 && t.Runtimes <= maxRuntimes) {
		return fmt.Errorf("spec: %s: runtimes %d out of range [1, %d]", where, t.Runtimes, maxRuntimes)
	}
	if !(t.Threads >= 1 && t.Threads <= maxThreads) {
		return fmt.Errorf("spec: %s: threads %d out of range [1, %d]", where, t.Threads, maxThreads)
	}
	return nil
}

func validFracs(where string, fracs []float64) error {
	if len(fracs) == 0 {
		return fmt.Errorf("spec: %s: empty load-fraction grid", where)
	}
	if len(fracs) > maxAxisLen {
		return fmt.Errorf("spec: %s: %d load fractions, max %d", where, len(fracs), maxAxisLen)
	}
	for _, f := range fracs {
		if !(f > 0 && f <= maxLoadFrac) {
			return fmt.Errorf("spec: %s: load fraction %v out of range (0, %v]", where, f, maxLoadFrac)
		}
	}
	return nil
}

func (sv *Serving) validate() error {
	if !(sv.CapacityPerThread > 0 && sv.CapacityPerThread <= maxCapacity) {
		return fmt.Errorf("spec: serving: capacity_per_thread %v out of range (0, %v]", sv.CapacityPerThread, maxCapacity)
	}
	if !(sv.TxnFrac >= 0 && sv.TxnFrac <= 1) {
		return fmt.Errorf("spec: serving: txn_frac %v out of range [0, 1]", sv.TxnFrac)
	}
	if len(sv.Topologies) == 0 {
		return fmt.Errorf("spec: serving: empty topology grid")
	}
	if len(sv.Topologies) > maxAxisLen {
		return fmt.Errorf("spec: serving: %d topologies, max %d", len(sv.Topologies), maxAxisLen)
	}
	for i, t := range sv.Topologies {
		if err := t.validate(fmt.Sprintf("topologies[%d]", i)); err != nil {
			return err
		}
	}
	if err := validFracs("load_fracs", sv.LoadFracs); err != nil {
		return err
	}
	if sv.Warmup <= 0 || sv.Measure <= 0 {
		return fmt.Errorf("spec: serving: warmup and measure must be positive (reproducibility forbids implicit windows)")
	}
	if err := sv.Breakdown.validate("breakdown"); err != nil {
		return err
	}
	found := false
	for _, t := range sv.Topologies {
		if t == sv.Breakdown {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("spec: serving: breakdown topology %s is not in the topology grid", sv.Breakdown.Label())
	}
	if b := sv.Burst; b != nil {
		if err := b.Topology.validate("burst.topology"); err != nil {
			return err
		}
		if err := validFracs("burst.fracs", b.Fracs); err != nil {
			return err
		}
		if !(b.Clients >= 1 && b.Clients <= maxClients) {
			return fmt.Errorf("spec: burst: clients %d out of range [1, %d]", b.Clients, maxClients)
		}
		if len(b.Arrivals) == 0 {
			return fmt.Errorf("spec: burst: needs at least one arrival process")
		}
		if len(b.Arrivals) > maxAxisLen {
			return fmt.Errorf("spec: burst: %d arrivals, max %d", len(b.Arrivals), maxAxisLen)
		}
		names := map[string]bool{}
		for i, a := range b.Arrivals {
			if a.Name == "" {
				return fmt.Errorf("spec: burst: arrival %d has no name", i)
			}
			if names[a.Name] {
				return fmt.Errorf("spec: burst: duplicate arrival name %q", a.Name)
			}
			names[a.Name] = true
			if _, err := arrival.Parse(a.Spec); err != nil {
				return fmt.Errorf("spec: burst arrival %q: %w", a.Name, err)
			}
		}
	}
	if o := sv.Overload; o != nil {
		if err := o.Topology.validate("overload.topology"); err != nil {
			return err
		}
		if !(o.Frac > 0 && o.Frac <= maxLoadFrac) {
			return fmt.Errorf("spec: overload: frac %v out of range (0, %v]", o.Frac, maxLoadFrac)
		}
	}
	return nil
}

func (ab *Ablation) validate() error {
	check := func(name string, vals []int, max int) error {
		if len(vals) == 0 {
			return fmt.Errorf("spec: ablation: empty %s grid", name)
		}
		if len(vals) > maxAxisLen {
			return fmt.Errorf("spec: ablation: %d %s values, max %d", len(vals), name, maxAxisLen)
		}
		for _, v := range vals {
			if !(v >= 1 && v <= max) {
				return fmt.Errorf("spec: ablation: %s %d out of range [1, %d]", name, v, max)
			}
		}
		return nil
	}
	if err := check("batches", ab.Batches, maxBatch); err != nil {
		return err
	}
	if err := check("threads", ab.Threads, maxThreads); err != nil {
		return err
	}
	if !(ab.FixedThreads >= 1 && ab.FixedThreads <= maxThreads) {
		return fmt.Errorf("spec: ablation: fixed_threads %d out of range [1, %d]", ab.FixedThreads, maxThreads)
	}
	if !(ab.FixedBatch >= 1 && ab.FixedBatch <= maxBatch) {
		return fmt.Errorf("spec: ablation: fixed_batch %d out of range [1, %d]", ab.FixedBatch, maxBatch)
	}
	if !(ab.CMaxCoalesceBatch >= 1 && ab.CMaxCoalesceBatch <= maxBatch) {
		return fmt.Errorf("spec: ablation: cmax_coalesce_batch %d out of range [1, %d]", ab.CMaxCoalesceBatch, maxBatch)
	}
	if ab.CMaxUpdateDelta <= 0 {
		return fmt.Errorf("spec: ablation: cmax_update_delta must be positive")
	}
	return nil
}

// validateName enforces the identifier charset shared by spec names,
// panel IDs, and check references: [a-z0-9._-], nonempty, max 64.
func validateName(field, name string) error {
	if name == "" {
		return fmt.Errorf("spec: %s is empty", field)
	}
	if len(name) > maxNameLen {
		return fmt.Errorf("spec: %s %q is longer than %d chars", field, name, maxNameLen)
	}
	for _, r := range name {
		ok := (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') ||
			r == '.' || r == '_' || r == '-'
		if !ok {
			return fmt.Errorf("spec: %s %q contains %q (want [a-z0-9._-])", field, name, r)
		}
	}
	return nil
}
