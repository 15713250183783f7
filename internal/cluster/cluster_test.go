package cluster

import (
	"testing"

	"repro/internal/blade"
	"repro/internal/rnic"
)

func TestNewBuildsTopology(t *testing.T) {
	cl := New(Config{ComputeBlades: 3, MemoryBlades: 2, BladeCapacity: 1 << 20, Seed: 1})
	defer cl.Stop()
	if len(cl.Computes) != 3 || len(cl.Memories) != 2 {
		t.Fatalf("topology = %d computes, %d memories", len(cl.Computes), len(cl.Memories))
	}
	// Memory blade IDs start at 1 (0 is the nil address).
	if cl.Memories[0].ID != 1 || cl.Memories[1].ID != 2 {
		t.Fatalf("memory IDs = %d, %d", cl.Memories[0].ID, cl.Memories[1].ID)
	}
	// Every blade gets its own RNIC.
	seen := map[*rnic.RNIC]bool{}
	for _, c := range cl.Computes {
		seen[c.NIC] = true
	}
	for _, m := range cl.Memories {
		seen[m.NIC] = true
	}
	if len(seen) != 5 {
		t.Fatalf("distinct RNICs = %d, want 5", len(seen))
	}
}

func TestTargetsAndBladeFor(t *testing.T) {
	cl := New(Config{ComputeBlades: 1, MemoryBlades: 3, BladeCapacity: 1 << 20})
	defer cl.Stop()
	targets := cl.Targets()
	if len(targets) != 3 {
		t.Fatalf("targets = %d", len(targets))
	}
	for i, tgt := range targets {
		if tgt.Mem.ID != i+1 {
			t.Fatalf("target %d has blade ID %d", i, tgt.Mem.ID)
		}
	}
	a := blade.Addr{Blade: 2, Offset: 100}
	if m := cl.BladeFor(a); m.ID != 2 {
		t.Fatalf("BladeFor = blade %d", m.ID)
	}
}

func TestNVMKindPropagates(t *testing.T) {
	cl := New(Config{ComputeBlades: 1, MemoryBlades: 1, MemoryKind: blade.NVM, BladeCapacity: 1 << 20})
	defer cl.Stop()
	if cl.Memories[0].Mem.Kind != blade.NVM {
		t.Fatal("memory kind not propagated")
	}
}

func TestCustomParams(t *testing.T) {
	p := rnic.Default()
	p.MaxDoorbells = 7
	cl := New(Config{ComputeBlades: 1, MemoryBlades: 1, BladeCapacity: 1 << 20, Params: &p})
	defer cl.Stop()
	if cl.Computes[0].NIC.P.MaxDoorbells != 7 {
		t.Fatal("params override lost")
	}
}

func TestDefaultCapacity(t *testing.T) {
	cl := New(Config{ComputeBlades: 1, MemoryBlades: 1})
	defer cl.Stop()
	if cl.Memories[0].Mem.Capacity() == 0 {
		t.Fatal("default capacity not applied")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{ComputeBlades: 0, MemoryBlades: 1})
}
