package exp

import (
	"slices"
	"sync"

	"knlcap/internal/knl"
	"knlcap/internal/machine"
)

// MachinePool recycles machines across sweep points. Building a machine
// allocates about 10 MB of tag arrays plus a thousand small objects
// (resources, channel ports); a sweep of hundreds of points rebuilt all of
// them per point. Get hands out an idle machine of the exact same
// configuration via Machine.Reset — whose contract guarantees
// digest-identity with a fresh construction — so pooled points produce
// bit-identical results to unpooled ones, whichever machine they draw.
//
// A pool is safe for concurrent use. Get resets outside the lock, so
// concurrent points only serialize on the short idle-list scan. At most
// max machines stay idle; Put drops the oldest idle machine to make room,
// so the pool follows the configuration a sweep is working on.
//
// Only a machine whose last run completed may be Put back (Reset refuses
// a non-quiescent one). A point that panics simply never returns its
// machine, so a half-run machine never reaches another point.
type MachinePool struct {
	mu   sync.Mutex
	max  int
	idle []*machine.Machine // oldest first
}

// NewMachinePool returns an empty pool that keeps at most max idle machines.
func NewMachinePool(max int) *MachinePool {
	return &MachinePool{max: max}
}

// maxIdleMachines bounds Machines. An idle machine holds about 10 MB
// (13 MB in cache mode) plus the line-table pages of its last workload,
// tens of MB after a STREAM point. Reuse pays within a sweep, whose points
// share one configuration: each worker puts its machine back and takes it
// again for its next point, so the idle list stays short while a sweep
// runs. More idle machines only keep configurations a pass has left; on
// perfbench at two workers a bound of 4 kept wall_s and alloc_mb where 2
// has them and nearly doubled the stream peak RSS (285 -> 509 MB).
const maxIdleMachines = 2

// Machines is the process-wide pool every sweep point draws its machine
// from: bench.Options.acquire, coll.Measure, msort.Simulate and
// bench.CalibrateTSC. Like a sync.Pool it is shared package state whose
// contents never change a result; unlike one, it survives garbage
// collections and matches machines by configuration.
var Machines = NewMachinePool(maxIdleMachines)

// Get returns a machine for cfg, reset to the state
// machine.NewSeededWithParams(cfg, p, seed) constructs — recycled when the
// pool holds one of exactly this configuration, freshly built otherwise.
func (mp *MachinePool) Get(cfg knl.Config, p machine.Params, seed uint64) *machine.Machine {
	mp.mu.Lock()
	for i := len(mp.idle) - 1; i >= 0; i-- {
		if m := mp.idle[i]; m.Cfg == cfg {
			mp.idle = slices.Delete(mp.idle, i, i+1)
			mp.mu.Unlock()
			m.Reset(p, seed)
			return m
		}
	}
	mp.mu.Unlock()
	return machine.NewSeededWithParams(cfg, p, seed)
}

// Put returns a machine to the pool once its point's run has completed.
// The caller must not use the machine afterwards.
func (mp *MachinePool) Put(m *machine.Machine) {
	if m == nil || mp.max <= 0 {
		return
	}
	mp.mu.Lock()
	if len(mp.idle) >= mp.max {
		mp.idle = slices.Delete(mp.idle, 0, len(mp.idle)-mp.max+1)
	}
	mp.idle = append(mp.idle, m)
	mp.mu.Unlock()
}
