package machine

import (
	"fmt"

	"knlcap/internal/knl"
	"knlcap/internal/memmode"
	"knlcap/internal/sim"
)

// Thread is one simulated hardware thread pinned to a place. All methods
// must be called from within the thread's own process (see Machine.Spawn).
//
// Thread is the blocking facade over the step machines: every timed
// primitive — Load/LoadWord (loadStep), Store/StoreNT/StoreWord/AddWord
// (storeStep), WaitWordGE (the signal-watch poll loop), the stream methods
// (streamStep) — drives the same resumable state machine a spawned kernel
// advances from the scheduler, just synchronously on a BlockingCtx. There
// is no second protocol implementation behind this type; it exists so that
// irregular code (tests, knl-trace, knl-explain, the examples) can call the
// walks imperatively. The thread's process is a coroutine (sim.Env.Go),
// which pays two switches whenever a walk really blocks. Measurement loops
// use Machine.SpawnKernel instead, which runs the identical machines with
// no switch at all.
type Thread struct {
	M     *Machine
	Place knl.Place
	P     *sim.Proc
}

// Spawn starts fn as a simulated thread pinned to place. The simulation
// runs when Machine.Run is called.
func (m *Machine) Spawn(place knl.Place, fn func(t *Thread)) {
	if place.Core < 0 || place.Core >= m.NumCores() {
		panic(fmt.Sprintf("machine: place core %d out of range", place.Core))
	}
	name := place.String()
	m.Env.Go(name, func(p *sim.Proc) {
		fn(&Thread{M: m, Place: place, P: p})
	})
}

// Run executes the simulation to completion and returns the final time.
func (m *Machine) Run() (sim.Time, error) { return m.Env.Run() }

// Now returns the current simulated time.
func (t *Thread) Now() sim.Time { return t.M.Env.Now() }

// Compute advances the thread by d nanoseconds of pure computation.
func (t *Thread) Compute(d float64) { t.P.Wait(d) }

// WaitUntil advances the thread to an absolute simulated time (used by the
// benchmark window synchronization).
func (t *Thread) WaitUntil(at sim.Time) {
	if at > t.Now() {
		t.P.WaitUntil(at)
	}
}

// Load reads line li of buffer b with full protocol timing.
func (t *Thread) Load(b memmode.Buffer, li int) {
	l := b.Line(li)
	start := t.Now()
	cls := t.M.loadLine(t.P, t.Place.Core, b, l)
	t.M.trace(OpRecord{Start: start, End: t.Now(), Core: t.Place.Core,
		Kind: OpLoad, Source: cls.String(), Line: l})
}

// Store writes line li of b (read-for-ownership protocol).
func (t *Thread) Store(b memmode.Buffer, li int) {
	l := b.Line(li)
	start := t.Now()
	t.M.storeLine(t.P, t.Place.Core, b, l)
	t.M.trace(OpRecord{Start: start, End: t.Now(), Core: t.Place.Core,
		Kind: OpStore, Line: l})
}

// StoreNT writes line li of b with a non-temporal store.
func (t *Thread) StoreNT(b memmode.Buffer, li int) {
	l := b.Line(li)
	start := t.Now()
	t.M.storeLineNT(t.P, t.Place.Core, b, l)
	t.M.trace(OpRecord{Start: start, End: t.Now(), Core: t.Place.Core,
		Kind: OpStoreNT, Line: l})
}

// LoadWord reads the 64-bit payload of line li (cost of a line load).
func (t *Thread) LoadWord(b memmode.Buffer, li int) uint64 {
	l := b.Line(li)
	start := t.Now()
	cls := t.M.loadLine(t.P, t.Place.Core, b, l)
	t.M.trace(OpRecord{Start: start, End: t.Now(), Core: t.Place.Core,
		Kind: OpLoad, Source: cls.String(), Line: l})
	return t.M.wordOf(l)
}

// StoreWord writes the 64-bit payload of line li (cost of a line store).
func (t *Thread) StoreWord(b memmode.Buffer, li int, v uint64) {
	l := b.Line(li)
	start := t.Now()
	t.M.storeLine(t.P, t.Place.Core, b, l)
	t.M.trace(OpRecord{Start: start, End: t.Now(), Core: t.Place.Core,
		Kind: OpStore, Line: l})
	t.M.setWord(l, v)
}

// AddWord atomically adds delta to the payload of line li and returns the
// new value (cost of a line store; models a LOCK ADD on an M line).
func (t *Thread) AddWord(b memmode.Buffer, li int, delta uint64) uint64 {
	l := b.Line(li)
	start := t.Now()
	t.M.storeLine(t.P, t.Place.Core, b, l)
	t.M.trace(OpRecord{Start: start, End: t.Now(), Core: t.Place.Core,
		Kind: OpStore, Line: l})
	return t.M.addWord(l, delta)
}

// PeekWord returns the payload without any timing cost (test inspection).
func (m *Machine) PeekWord(b memmode.Buffer, li int) uint64 {
	return m.wordOf(b.Line(li))
}

// PokeWord sets the payload without any timing cost (setup).
func (m *Machine) PokeWord(b memmode.Buffer, li int, v uint64) {
	m.setWord(b.Line(li), v)
}

// WaitWordGE polls the payload of line li until it is >= v, sleeping on the
// line's invalidation signal between polls: a locally cached flag costs
// nothing until the writer invalidates it, exactly like polling on a
// coherent cache. Returns the observed value.
func (t *Thread) WaitWordGE(b memmode.Buffer, li int, v uint64) uint64 {
	l := b.Line(li)
	t.M.markWatched(l)
	for {
		ver := t.M.watchVersion(l)
		// Pay the read (hit if our cached copy is intact, coherence miss
		// after an invalidation), then sample the value: the load may have
		// waited behind the racing store.
		start := t.Now()
		cls := t.M.loadLine(t.P, t.Place.Core, b, l)
		t.M.trace(OpRecord{Start: start, End: t.Now(), Core: t.Place.Core,
			Kind: OpLoad, Source: cls.String(), Line: l})
		if got := t.M.wordOf(l); got >= v {
			return got
		}
		t.M.waitWatch(t.P, l, ver)
	}
}

// ReadStream reads the whole buffer (vectorized when vector is true).
func (t *Thread) ReadStream(b memmode.Buffer, vector bool) {
	t.M.streamRead(t.P, t.Place.Core, b, 0, b.NumLines(), vector)
}

// ReadStreamRange reads n lines starting at line from.
func (t *Thread) ReadStreamRange(b memmode.Buffer, from, n int, vector bool) {
	t.M.streamRead(t.P, t.Place.Core, b, from, n, vector)
}

// WriteStream writes the whole buffer (non-temporal when nt is true).
func (t *Thread) WriteStream(b memmode.Buffer, nt bool) {
	t.M.streamWrite(t.P, t.Place.Core, b, 0, b.NumLines(), nt)
}

// WriteStreamRange writes n lines starting at line from.
func (t *Thread) WriteStreamRange(b memmode.Buffer, from, n int, nt bool) {
	t.M.streamWrite(t.P, t.Place.Core, b, from, n, nt)
}

// CopyStream copies min(len) lines from src to dst.
func (t *Thread) CopyStream(dst, src memmode.Buffer, nt bool) {
	n := dst.NumLines()
	if s := src.NumLines(); s < n {
		n = s
	}
	t.M.streamCopy(t.P, t.Place.Core, dst, src, 0, 0, n, nt)
}

// CopyStreamRange copies n lines from src@srcFrom to dst@dstFrom.
func (t *Thread) CopyStreamRange(dst, src memmode.Buffer, dstFrom, srcFrom, n int, nt bool) {
	t.M.streamCopy(t.P, t.Place.Core, dst, src, dstFrom, srcFrom, n, nt)
}

// TriadStream performs dst[i] = b[i] + s*c[i] over the common line count.
func (t *Thread) TriadStream(dst, b, c memmode.Buffer, nt bool) {
	n := dst.NumLines()
	for _, x := range []memmode.Buffer{b, c} {
		if s := x.NumLines(); s < n {
			n = s
		}
	}
	t.M.streamTriad(t.P, t.Place.Core, dst, b, c, n, nt)
}

// PointerChase performs n dependent single-line loads over the buffer,
// visiting lines in the permutation order perm (BenchIT-style latency
// measurement). It returns the average per-access latency.
func (t *Thread) PointerChase(b memmode.Buffer, perm []int, n int) float64 {
	start := t.Now()
	nl := len(perm)
	for i := 0; i < n; i++ {
		t.Load(b, perm[i%nl])
	}
	return (t.Now() - start) / float64(n)
}

// EvictBuffer pushes the buffer out of this thread's caches with timing
// cost (CLFLUSH-like loop); for zero-cost setup use Machine.FlushBuffer.
func (t *Thread) EvictBuffer(b memmode.Buffer) {
	for i := 0; i < b.NumLines(); i++ {
		t.M.FlushLine(b.Line(i))
		t.P.Wait(t.M.P.StorePostNs)
	}
}

// TileOf returns the tile the thread runs on.
func (t *Thread) TileOf() int { return t.Place.Tile }

// ClusterOf returns the thread's affinity cluster under the machine's mode.
func (t *Thread) ClusterOf() int {
	return t.M.Mapper.ClusterOfTile(t.Place.Tile)
}
