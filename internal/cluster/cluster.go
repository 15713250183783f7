// Package cluster wires compute blades and memory blades into the
// disaggregated topology of the paper's testbed: every blade has its
// own RNIC, compute blades open device contexts and create queue
// pairs, memory blades passively serve one-sided verbs.
package cluster

import (
	"fmt"

	"repro/internal/blade"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// Config describes a cluster to build.
type Config struct {
	// ComputeBlades and MemoryBlades are the blade counts. Memory blade
	// IDs start at 1 so that blade.Addr{} remains the null address.
	ComputeBlades int
	MemoryBlades  int

	// MemoryKind selects DRAM (default) or NVM storage on memory
	// blades (FORD's configuration).
	MemoryKind blade.Kind

	// BladeCapacity is each memory blade's size in bytes.
	BladeCapacity uint64

	// Params overrides the RNIC model parameters; zero value means
	// rnic.Default().
	Params *rnic.Params

	// Seed seeds the simulation engine.
	Seed int64
}

// Compute is one compute blade: many cores, a small local buffer, and
// an RNIC with an open device context.
type Compute struct {
	ID  int
	NIC *rnic.RNIC
}

// Memory is one memory blade: a large memory region fronted by an
// RNIC. It never posts work requests.
type Memory struct {
	ID  int
	NIC *rnic.RNIC
	Mem *blade.Blade
}

// Cluster is the assembled topology.
type Cluster struct {
	Eng      *sim.Engine
	Computes []*Compute
	Memories []*Memory
}

// New builds a cluster per cfg, with a fresh simulation engine.
func New(cfg Config) *Cluster {
	if cfg.ComputeBlades < 1 || cfg.MemoryBlades < 1 {
		panic("cluster: need at least one compute and one memory blade")
	}
	if cfg.BladeCapacity == 0 {
		cfg.BladeCapacity = 256 << 20
	}
	params := rnic.Default()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	eng := sim.New(cfg.Seed)
	c := &Cluster{Eng: eng}
	for i := 0; i < cfg.ComputeBlades; i++ {
		c.Computes = append(c.Computes, &Compute{
			ID:  i,
			NIC: rnic.New(eng, fmt.Sprintf("compute-%d", i), params),
		})
	}
	for i := 0; i < cfg.MemoryBlades; i++ {
		id := i + 1
		c.Memories = append(c.Memories, &Memory{
			ID:  id,
			NIC: rnic.New(eng, fmt.Sprintf("memory-%d", id), params),
			Mem: blade.New(id, cfg.MemoryKind, cfg.BladeCapacity),
		})
	}
	return c
}

// Targets returns the verbs targets for all memory blades, in blade-ID
// order.
func (c *Cluster) Targets() []verbs.Target {
	out := make([]verbs.Target, len(c.Memories))
	for i, m := range c.Memories {
		out[i] = verbs.Target{NIC: m.NIC, Mem: m.Mem}
	}
	return out
}

// BladeFor returns the memory blade that owns the address.
func (c *Cluster) BladeFor(a blade.Addr) *Memory {
	return c.Memories[a.Blade-1]
}

// Stop shuts the engine down, unwinding all simulated processes.
func (c *Cluster) Stop() { c.Eng.Stop() }
