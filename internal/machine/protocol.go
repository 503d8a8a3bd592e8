package machine

import (
	"math/bits"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/memmode"
	"knlcap/internal/sim"
)

// srcClass classifies where a load found its data; streams use it to pick
// the memory-level parallelism of the following chunk.
type srcClass int

const (
	srcL1 srcClass = iota
	srcTile
	srcRemote
	srcMem
)

func (s srcClass) String() string {
	switch s {
	case srcL1:
		return "L1"
	case srcTile:
		return "tile"
	case srcRemote:
		return "remote"
	default:
		return "mem"
	}
}

// loadLine performs a single-line read with full protocol latency for the
// given core and returns where the data came from. It is the building block
// of the pointer-chasing benchmarks and the first access of every stream
// chunk. The walk itself lives in loadStep (step_load.go); the CHA blocks
// conflicting requests to the line until the forwarding tile has accepted
// the transaction — this serialization (CHASvc + owner port) is what the
// paper measures as the contention slope beta ~ 34 ns.
//
//knl:hotpath one simulated memory access; BenchmarkLoadLineHotPath pins 0 allocs/op
func (m *Machine) loadLine(p *sim.Proc, core int, b memmode.Buffer, l cache.Line) srcClass {
	var k loadStep
	k.init(m, core, b, l)
	c := sim.BlockingCtx(p)
	for k.pc != ldDone {
		k.step(&c)
		c.Drain()
	}
	return k.cls
}

// asyncWriteBack charges the memory ports for a posted write-back without
// delaying the requesting thread (the data return and the write-back travel
// independently).
func (m *Machine) asyncWriteBack(l cache.Line) {
	//lint:ignore hotalloc spawning the posted-write-back process is the allocation; only dirty-forward misses take this path (BenchmarkLoadLineHotPath stays at 0 allocs/op)
	w := &wbStep{m: m}
	w.wb.start(l)
	m.Env.GoSteps("wb", w)
}

// downgradeSiblingL1 moves any sibling-core L1 copy to Shared.
func (m *Machine) downgradeSiblingL1(tile, exceptCore int, l cache.Line) {
	for c := 0; c < knl.CoresPerTile; c++ {
		core := tile*knl.CoresPerTile + c
		if core == exceptCore {
			continue
		}
		l1 := m.cores[core].l1
		if l1.Peek(l) != cache.Invalid {
			l1.SetState(l, cache.Shared)
		}
	}
}

// storeLine performs a single-line store with full RFO protocol timing.
// The walk itself lives in storeStep (step_store.go); the home CHA is held
// until the Modified state is installed, so conflicting requests block at
// the directory exactly as the loads do.
//
//knl:hotpath one simulated store; BenchmarkStoreLineHotPath pins 0 allocs/op
func (m *Machine) storeLine(p *sim.Proc, core int, b memmode.Buffer, l cache.Line) {
	var k storeStep
	k.init(m, core, b, l)
	c := sim.BlockingCtx(p)
	for k.pc != ssDone {
		k.step(&c)
		c.Drain()
	}
}

// storeLineNT performs a non-temporal (streaming) store: cached copies are
// invalidated and the line goes straight to memory without read-for-
// ownership. The core-visible cost is small (the store is posted); the
// memory ports are charged for the write. The walk lives in storeStep.
func (m *Machine) storeLineNT(p *sim.Proc, core int, b memmode.Buffer, l cache.Line) {
	var k storeStep
	k.initNT(m, core, b, l)
	c := sim.BlockingCtx(p)
	for k.pc != ssDone {
		k.step(&c)
		c.Drain()
	}
}

// invalidateOthers drops the line from every tile except `exceptTile`
// (pass -1 to drop it everywhere). Pollers watching the line are woken by
// the caller's notify. The directory update is a single slot access: the
// dropped bits are cleared at once instead of one lookup-plus-write per
// owning tile.
func (m *Machine) invalidateOthers(exceptTile int, l cache.Line) {
	t, s, id := m.lineState(l)
	if s.owners == 0 || s.gen != t.bufGen[id] {
		return
	}
	var keep uint64
	if exceptTile >= 0 {
		keep = s.owners & (1 << uint(exceptTile))
	}
	drop := s.owners &^ keep
	for o := drop; o != 0; o &= o - 1 {
		ti := bits.TrailingZeros64(o)
		m.tiles[ti].l2.Invalidate(l)
		m.invalidateTileL1s(ti, l)
	}
	if drop != 0 && keep == 0 {
		t.bufLive[id]--
		t.dirLive--
	}
	s.owners = keep
}

func (m *Machine) invalidateTileL1s(tile int, l cache.Line) {
	for c := 0; c < knl.CoresPerTile; c++ {
		m.cores[tile*knl.CoresPerTile+c].l1.Invalidate(l)
	}
}
