package machine

import (
	"testing"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/memmode"
)

// TestLineTouchedBeforeRegistration: a line whose page is built before its
// buffer exists sits in the anonymous bucket; registering the buffer moves
// its live directory entry to the buffer's count, so the epoch flush of the
// buffer retires it.
func TestLineTouchedBeforeRegistration(t *testing.T) {
	m := noJitter(knl.DefaultConfig())
	l := cache.LineOf(memmode.DDRBase + 3*knl.LineSize) // the 4th line of the first DDR buffer
	m.dirAdd(l, 5)
	tab := &m.lines[knl.DDR]
	if tab.bufLive[0] != 1 || tab.dirLive != 1 {
		t.Fatalf("before registration: anonymous live %d, dirLive %d, want 1 and 1", tab.bufLive[0], tab.dirLive)
	}
	b := m.Alloc.MustAlloc(knl.DDR, 0, 8*knl.LineSize)
	if b.Line(3) != l {
		t.Fatalf("buffer line 3 = %v, want %v", b.Line(3), l)
	}
	// The page exists, so the next access does not sync; placeOfLine
	// finds the stale anonymous id and syncs.
	if _, ok := m.placeOfLine(l); !ok {
		t.Fatal("placeOfLine found no buffer for a registered line")
	}
	if _, _, id := m.lineState(l); id != 1 {
		t.Fatalf("line id %d after sync, want 1", id)
	}
	if tab.bufLive[0] != 0 || tab.bufLive[1] != 1 {
		t.Fatalf("after sync: anonymous live %d, buffer live %d, want 0 and 1", tab.bufLive[0], tab.bufLive[1])
	}
	if m.owners(l) != 1<<5 {
		t.Fatalf("owners %#x after sync, want tile 5", m.owners(l))
	}
	m.FlushBuffer(b)
	if m.owners(l) != 0 || tab.dirLive != 0 || tab.bufLive[1] != 0 {
		t.Fatalf("after flush: owners %#x, dirLive %d, buffer live %d", m.owners(l), tab.dirLive, tab.bufLive[1])
	}
}

// TestFlushBufferAcrossAbsentPage primes the first and last page of a
// three-page buffer and flushes it whole: the epoch walk must skip the
// untouched middle page (without building it) and still retire every line.
func TestFlushBufferAcrossAbsentPage(t *testing.T) {
	m := noJitter(knl.DefaultConfig())
	b := m.Alloc.MustAlloc(knl.DDR, 0, 3*pageLines*knl.LineSize)
	head := b.Slice(0, 4*knl.LineSize)
	tail := b.Slice((3*pageLines-4)*knl.LineSize, 4*knl.LineSize)
	m.Prime(head, 0, cache.Exclusive)
	m.Prime(tail, 2, cache.Modified)
	tab := &m.lines[knl.DDR]
	if len(tab.pages) != 3 || tab.pages[1] != nil {
		t.Fatalf("want pages 0 and 2 built and page 1 absent, have %d pages (middle %p)", len(tab.pages), tab.pages[1])
	}
	if tab.dirLive != 8 || tab.bufLive[1] != 8 {
		t.Fatalf("dirLive %d, buffer live %d, want 8 and 8", tab.dirLive, tab.bufLive[1])
	}
	m.FlushBuffer(b)
	if tab.pages[1] != nil {
		t.Fatal("the flush built the absent middle page")
	}
	if tab.dirLive != 0 || tab.bufLive[1] != 0 {
		t.Fatalf("after flush: dirLive %d, buffer live %d", tab.dirLive, tab.bufLive[1])
	}
	for _, s := range []struct {
		b    memmode.Buffer
		tile int
	}{{head, 0}, {tail, 1}} {
		for i := 0; i < s.b.NumLines(); i++ {
			l := s.b.Line(i)
			if st := m.LineState(s.tile, l); st != cache.Invalid {
				t.Errorf("line %v still %v in tile %d's L2", l, st, s.tile)
			}
			if o := m.owners(l); o != 0 {
				t.Errorf("line %v still owned by %#x", l, o)
			}
		}
	}
}

// runPagedWorkload streams copies across several pages of two buffers from
// eight kernels, so the run builds many pages, flushes whole buffers and
// queues on the memory channels.
func runPagedWorkload(t *testing.T, m *Machine) uint64 {
	t.Helper()
	const lines = 5 * pageLines / 2
	src := m.Alloc.MustAlloc(knl.DDR, 0, lines*knl.LineSize)
	dst := m.Alloc.MustAlloc(knl.DDR, 0, lines*knl.LineSize)
	m.Prime(src.Slice(0, 64*knl.LineSize), 6, cache.Modified)
	for r := 0; r < 8; r++ {
		done := false
		from := r * lines / 8
		m.SpawnStreamTask(place(8*r), func(float64) (StreamOp, bool) {
			if done {
				return StreamOp{}, false
			}
			done = true
			return StreamOp{Kind: StreamCopy, Dst: dst, Src: src, DstFrom: from, SrcFrom: from, N: lines / 8, NT: r%2 == 0}, true
		})
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	m.FlushBuffer(dst)
	return m.StateDigest()
}

// TestPooledResetReusesPages: a pooled Reset recycles every built page, so
// rerunning the same workload builds its pages from the free list — no new
// page is allocated — and digests equal to a fresh machine's run.
func TestPooledResetReusesPages(t *testing.T) {
	cfg := knl.DefaultConfig()
	fresh := runPagedWorkload(t, NewWithParams(cfg, DefaultParams()))

	m := NewWithParams(cfg, DefaultParams())
	runPagedWorkload(t, m)
	built := map[*linePage]bool{}
	for k := range m.lines {
		for _, pg := range m.lines[k].pages {
			if pg != nil {
				built[pg] = true
			}
		}
	}
	if len(built) < 5 {
		t.Fatalf("workload built only %d pages", len(built))
	}
	m.Reset(DefaultParams(), cfg.YieldSeed)
	if got := runPagedWorkload(t, m); got != fresh {
		t.Fatalf("pooled rerun digest %#x, fresh %#x", got, fresh)
	}
	n := 0
	for k := range m.lines {
		for _, pg := range m.lines[k].pages {
			if pg == nil {
				continue
			}
			n++
			if !built[pg] {
				t.Errorf("rerun allocated a new page %p", pg)
			}
		}
	}
	if n != len(built) {
		t.Errorf("rerun built %d pages, first run %d", n, len(built))
	}
}
