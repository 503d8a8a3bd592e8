package exp

import (
	"fmt"
	"slices"
	"testing"

	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/stats"
)

// poolWorkload drives a small mixed load/store workload over m and returns
// the final state digest. Everything derives from the explicit seed, so two
// machines in the same initial state must produce bit-identical digests.
// It returns errors instead of failing the test because sweep points run on
// worker goroutines.
func poolWorkload(m *machine.Machine, seed uint64) (uint64, error) {
	buf := m.Alloc.MustAlloc(knl.DDR, 0, 4*knl.LineSize)
	rng := stats.NewRNG(seed)
	for a := 0; a < 4; a++ {
		core := rng.Intn(knl.NumCores)
		ops := make([]int, 16)
		for i := range ops {
			ops[i] = rng.Intn(2)<<8 | rng.Intn(4)
		}
		pl := knl.Place{Tile: core / knl.CoresPerTile, Core: core}
		m.Spawn(pl, func(th *machine.Thread) {
			for _, op := range ops {
				if op&0x100 != 0 {
					th.Store(buf, op&0xff)
				} else {
					th.Load(buf, op&0xff)
				}
			}
		})
	}
	if _, err := m.Run(); err != nil {
		return 0, fmt.Errorf("pool workload (seed %d): %w", seed, err)
	}
	return m.StateDigest(), nil
}

// TestMachinePoolRecyclesAndResets proves the serial pool contract: Put
// followed by a matching Get hands back the same machine object, and the
// recycled machine replays a workload bit-identically to its first life.
func TestMachinePoolRecyclesAndResets(t *testing.T) {
	cfg := knl.DefaultConfig()
	p := machine.DefaultParams()
	pool := NewMachinePool(2)

	m1 := pool.Get(cfg, p, 1)
	d1, err := poolWorkload(m1, 7)
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(m1)

	m2 := pool.Get(cfg, p, 1)
	if m2 != m1 {
		t.Fatal("pool built a new machine instead of recycling the returned one")
	}
	d2, err := poolWorkload(m2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("recycled machine digest %#x, first life %#x", d2, d1)
	}

	// A Get for a different configuration must not disturb the pooled one.
	pool.Put(m2)
	other := pool.Get(cfg.WithModes(knl.Quadrant, knl.Flat), p, 1)
	if other == m2 {
		t.Fatal("pool recycled a machine across configurations")
	}
}

// TestMachinePoolConcurrentSweep runs a sweep whose points share one small
// pool, as every sweep shares Machines, and asserts every point's digest
// equals a fresh, serially built machine's. Under -race this also proves
// that a shared pool introduces no sharing between concurrent points;
// mixing two configurations exercises both the recycle-hit and the
// build-fresh path of Get, and the eviction path of Put.
func TestMachinePoolConcurrentSweep(t *testing.T) {
	cfgs := []knl.Config{
		knl.DefaultConfig(),
		knl.DefaultConfig().WithModes(knl.Quadrant, knl.Flat),
	}
	p := machine.DefaultParams()
	const n = 24
	const base = 20260807

	expected := make([]uint64, n)
	for i := range expected {
		seed := PointSeed(base, i)
		m := machine.NewSeededWithParams(cfgs[i%len(cfgs)], p, seed)
		d, err := poolWorkload(m, seed)
		if err != nil {
			t.Fatal(err)
		}
		expected[i] = d
	}

	type res struct {
		digest uint64
		err    error
	}
	pool := NewMachinePool(3)
	got, done := RunCfg(Config{Parallel: 4}, n, func(i int) res {
		seed := PointSeed(base, i)
		m := pool.Get(cfgs[i%len(cfgs)], p, seed)
		d, err := poolWorkload(m, seed)
		if err == nil {
			pool.Put(m)
		}
		return res{digest: d, err: err}
	})
	if !done {
		t.Fatal("sweep reported cancellation with no Cancel configured")
	}
	for i, r := range got {
		if r.err != nil {
			t.Errorf("point %d: %v", i, r.err)
			continue
		}
		if r.digest != expected[i] {
			t.Errorf("point %d (%s): pooled digest %#x, fresh %#x",
				i, cfgs[i%len(cfgs)].Name(), r.digest, expected[i])
		}
	}
	if idle := pool.idleCount(); idle > 3 {
		t.Errorf("pool holds %d idle machines, bound 3", idle)
	}
}

// TestMachinePoolPanickingPointKeepsMachine: a point that panics mid-run
// (runPoint recovers it, Run re-raises it) never returns its machine, so
// the half-run machine — which Reset would refuse — never reaches another
// point, while the points that completed do return theirs.
func TestMachinePoolPanickingPointKeepsMachine(t *testing.T) {
	cfg := knl.DefaultConfig()
	p := machine.DefaultParams()
	pool := NewMachinePool(4)
	const n, bad = 4, 2
	machines := make([]*machine.Machine, n)
	func() {
		defer func() {
			if r := recover(); r != "point 2 failed" {
				t.Fatalf("recovered %v, want the point's panic", r)
			}
		}()
		Run(2, n, func(i int) int {
			m := pool.Get(cfg, p, PointSeed(1, i))
			machines[i] = m
			if i == bad {
				// Leave the machine mid-run: a process spawned, never run.
				m.SpawnKernel(knl.Place{}, func(float64, uint64) (machine.KernelOp, bool) {
					return machine.KernelOp{}, false
				})
				panic("point 2 failed")
			}
			if _, err := poolWorkload(m, uint64(i)); err != nil {
				panic(err)
			}
			pool.Put(m)
			return i
		})
	}()
	if pool.idleCount() == 0 {
		t.Fatal("no completed point returned its machine")
	}
	if slices.Contains(pool.idle, machines[bad]) {
		t.Fatal("the panicking point's machine was returned to the pool")
	}
	// Every idle machine still resets cleanly.
	for pool.idleCount() > 0 {
		if _, err := poolWorkload(pool.Get(cfg, p, 9), 9); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMachinePoolBound: concurrent Puts never leave more idle machines
// than the bound, and Put drops the oldest idle machine first.
func TestMachinePoolBound(t *testing.T) {
	cfg := knl.DefaultConfig()
	p := machine.DefaultParams()
	const max = 2
	pool := NewMachinePool(max)
	ms := make([]*machine.Machine, 5)
	for i := range ms {
		ms[i] = machine.NewSeededWithParams(cfg, p, 1)
	}
	Run(len(ms), len(ms), func(i int) int {
		pool.Put(ms[i])
		if idle := pool.idleCount(); idle > max {
			panic(fmt.Sprintf("%d idle machines, bound %d", idle, max))
		}
		return i
	})
	if idle := pool.idleCount(); idle != max {
		t.Fatalf("%d idle machines after %d Puts, want the bound %d", idle, len(ms), max)
	}
	// Serially, the newest machines survive.
	for _, m := range ms {
		pool.Put(m)
	}
	a, b := pool.Get(cfg, p, 1), pool.Get(cfg, p, 1)
	if a != ms[4] || b != ms[3] {
		t.Fatal("Put did not evict the oldest idle machines first")
	}
	if pool.idleCount() != 0 {
		t.Fatalf("%d idle machines after draining the pool", pool.idleCount())
	}
}

// idleCount returns the number of idle machines.
func (mp *MachinePool) idleCount() int {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	return len(mp.idle)
}
