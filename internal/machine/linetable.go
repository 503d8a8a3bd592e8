package machine

import (
	"slices"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/memmode"
	"knlcap/internal/sim"
)

// The machine keeps all per-line protocol metadata — the directory owner
// bitset, the 64-bit payload word, and the poller watch slot — in two
// paged tables indexed by line-address offset, one per memory kind.
// memmode.Allocator is a bump allocator, so each kind's allocations tile a
// contiguous address range and `line - base` is a dense index; the former
// map[cache.Line] tables hashed on every off-tile access, which dominated
// the sweep profile once the event engine went allocation-free (PR 2).
//
// The index space is split into fixed pages of pageLines lines, built on
// the first touch of any of their lines and recycled through a free list
// when the machine resets. Host cost therefore scales with the lines a
// workload touches, not with the memory it allocates: the cache-mode
// bandwidth sweeps size their buffer pools to twice the side cache and
// touch a few buffers of them per point. An absent page holds no live
// state — every slot of a fresh page is zero — so walks over the table
// (the digest, the epoch flush) skip it without changing their result.
//
// Flushes are epoch-based: every registered allocation carries a
// generation counter, a slot's directory content is live only while the
// generation recorded in the slot matches its buffer's, and FlushBuffer
// retires a whole allocation by bumping the generation — O(1) beyond the
// tag-array invalidation of the lines actually cached. Payload words and
// watch state are not generation-gated: flushing a line never cleared
// them under the map design either (FlushLine only deleted directory
// entries).
//
// CAUTION for maintainers: a *lineSlot must never be held across a
// blocking call (p.Wait, Signal.Wait, Resource.Acquire/Use). Pages do not
// move while they exist, but the slot's meaning is only fixed at the
// instant it is resolved — a buffer registered while the process sleeps
// re-labels the line, and a Reset recycles the page. Re-resolve through
// Machine.lineState after every potential block (see Machine.waitWatch).

// lineSlot is the per-line record. The sig pointer is non-nil only while
// pollers are blocked on the line (see Machine.waitWatch): signals are
// dropped after every broadcast, fixing the monotonic watcher-table
// growth of the map design.
type lineSlot struct {
	word     uint64      // payload (meaningful iff slotWord is set)
	watchVer uint64      // notify count since the line became watched
	sig      *sim.Signal // live poller signal; nil when none are blocked
	owners   uint64      // tile bitset (live iff gen matches the buffer's)
	gen      uint32      // buffer generation at the last dirAdd
	flags    uint8
}

const (
	slotWord    uint8 = 1 << iota // a payload word has been stored
	slotWatched                   // the line has (ever had) pollers
)

// Page geometry: pageLines consecutive lines share one linePage.
const (
	pageShift = 9
	pageLines = 1 << pageShift
	pageMask  = pageLines - 1
)

// linePage is the metadata of pageLines consecutive lines. buf maps each
// line to its registered-buffer id; id 0 is the anonymous bucket for lines
// outside any allocation (its generation never advances, so anonymous
// entries are only killed per line).
type linePage struct {
	slots [pageLines]lineSlot
	buf   [pageLines]int32
}

// lineTable is the paged per-line metadata table of one memory kind.
type lineTable struct {
	//knl:nostate immutable wiring: which memory kind the table serves
	kind knl.MemKind
	//knl:nostate immutable base line of the kind's address range
	base cache.Line
	// pages maps a page index (slot index >> pageShift) to its page; nil
	// for pages no line of which has been touched since the last reset.
	pages []*linePage
	//knl:nostate recycled pages, deliberately invisible to any digest (re-zeroed when rebuilt)
	free   []*linePage
	bufGen []uint32 // buffer id -> current directory generation
	//knl:nostate derived live-count bookkeeping over the folded owner/generation slots
	bufLive []int32 // buffer id -> slots with a live directory entry
	//knl:nostate registered-allocation mirror, resynced from the allocator
	bufs []memmode.Buffer // registered allocations; bufs[id-1]
	//knl:nostate allocator sync cursor for bufs
	synced int // allocator buffers registered so far

	dirLive int // live directory entries (the former len(dir))
	words   int // slots with slotWord set (the former len(words))
	watched int // slots with slotWatched set (the former len(watchers))
}

func (t *lineTable) init(kind knl.MemKind, base cache.Line) {
	t.kind = kind
	t.base = base
	t.reset()
}

// reset forgets all line state: every built page goes back to the free
// list, so a pooled machine pays only for the pages its next workload
// actually touches, and rebuilds them without allocating.
func (t *lineTable) reset() {
	for _, pg := range t.pages {
		if pg != nil {
			t.free = append(t.free, pg)
		}
	}
	clear(t.pages)
	t.pages = t.pages[:0]
	t.bufGen = append(t.bufGen[:0], 0) // id 0: the anonymous bucket
	t.bufLive = append(t.bufLive[:0], 0)
	t.bufs = t.bufs[:0]
	t.synced = 0
	t.dirLive, t.words, t.watched = 0, 0, 0
}

// bufRange returns the slot-index range [lo, hi) of registered buffer id.
func (t *lineTable) bufRange(id int) (lo, hi int) {
	b := t.bufs[id-1]
	lo = int(uint64(cache.LineOf(b.Base)) - uint64(t.base))
	return lo, lo + b.NumLines()
}

// grow registers allocator buffers made since the last sync. Only pages
// that already exist are walked: a line touched before its buffer was
// registered sits in the anonymous bucket, and any live entry of it moves
// to the new id so the per-buffer live counts stay exact. Pages built
// later take their ids from the registry directly.
func (t *lineTable) grow(a *memmode.Allocator) {
	for _, b := range a.Buffers(t.kind)[t.synced:] {
		id := int32(len(t.bufGen))
		t.bufGen = append(t.bufGen, 0)
		t.bufLive = append(t.bufLive, 0)
		t.bufs = append(t.bufs, b)
		t.synced++
		lo, hi := t.bufRange(int(id))
		for pi := lo >> pageShift; pi <= (hi-1)>>pageShift && pi < len(t.pages); pi++ {
			pg := t.pages[pi]
			if pg == nil {
				continue
			}
			first := pi << pageShift
			for i := max(lo, first); i < min(hi, first+pageLines); i++ {
				j := i & pageMask
				if pg.slots[j].owners != 0 && pg.buf[j] == 0 {
					t.bufLive[0]--
					t.bufLive[id]++
					pg.slots[j].gen = t.bufGen[id]
				}
				pg.buf[j] = id
			}
		}
	}
}

// page returns the page holding slot index i, syncing the buffer registry
// and building the page (from the free list when possible) on first touch.
func (t *lineTable) page(a *memmode.Allocator, i int) *linePage {
	pi := i >> pageShift
	if pi < len(t.pages) {
		if pg := t.pages[pi]; pg != nil {
			return pg
		}
	} else {
		n := len(t.pages)
		//lint:ignore hotalloc amortized growth of the page directory (one pointer per page); pooled machines reuse its capacity
		t.pages = slices.Grow(t.pages, pi+1-n)[:pi+1]
		clear(t.pages[n:])
	}
	t.grow(a)
	var pg *linePage
	if n := len(t.free); n > 0 {
		pg = t.free[n-1]
		t.free = t.free[:n-1]
		*pg = linePage{}
	} else {
		//lint:ignore hotalloc one page per pageLines touched lines, recycled through the free list across resets
		pg = &linePage{}
	}
	t.fillBufs(pg, pi<<pageShift)
	t.pages[pi] = pg
	return pg
}

// fillBufs labels the page starting at slot index first with the ids of
// the registered buffers it overlaps: a binary search finds the first
// buffer ending beyond the page start, then the page is filled run by run
// (bump allocation keeps bufs sorted and disjoint). A zeroed page already
// labels every line anonymous.
func (t *lineTable) fillBufs(pg *linePage, first int) {
	lo, hi := 0, len(t.bufs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if _, end := t.bufRange(mid + 1); end <= first {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	last := first + pageLines
	for id := lo + 1; id <= len(t.bufs); id++ {
		blo, bhi := t.bufRange(id)
		if blo >= last {
			break
		}
		for i := max(blo, first); i < min(bhi, last); i++ {
			pg.buf[i-first] = int32(id)
		}
	}
}

// eachSlot calls fn for every slot of the built pages in ascending line
// order, with the slot's absolute line and buffer id. Absent pages are
// skipped: every slot of them would be zero.
func (t *lineTable) eachSlot(fn func(l uint64, s *lineSlot, id int32)) {
	for pi, pg := range t.pages {
		if pg == nil {
			continue
		}
		first := uint64(t.base) + uint64(pi)<<pageShift
		for j := range pg.slots {
			fn(first+uint64(j), &pg.slots[j], pg.buf[j])
		}
	}
}

// lineState returns the table, slot and buffer id for l, building the
// line's page on first touch. The returned pointer is valid only until the
// next potential block — never hold it across a blocking call.
func (m *Machine) lineState(l cache.Line) (*lineTable, *lineSlot, int32) {
	t := &m.lines[memmode.KindOfAddr(l.Addr())]
	i := int(uint64(l) - uint64(t.base))
	pg := t.page(m.Alloc, i)
	return t, &pg.slots[i&pageMask], pg.buf[i&pageMask]
}

// --- directory ------------------------------------------------------------

// dirAdd sets the tile's bit in the line's owner set in one slot access
// (the former map did a lookup plus a write). A slot whose generation
// lags its buffer's holds a retired entry and is treated as empty.
func (m *Machine) dirAdd(l cache.Line, tile int) {
	t, s, id := m.lineState(l)
	g := t.bufGen[id]
	bit := uint64(1) << uint(tile)
	if s.owners == 0 || s.gen != g {
		s.owners = bit
		s.gen = g
		t.bufLive[id]++
		t.dirLive++
		return
	}
	s.owners |= bit
}

// dirRemove clears the tile's bit in one slot access.
func (m *Machine) dirRemove(l cache.Line, tile int) {
	t, s, id := m.lineState(l)
	if s.owners == 0 || s.gen != t.bufGen[id] {
		return
	}
	s.owners &^= 1 << uint(tile)
	if s.owners == 0 {
		t.bufLive[id]--
		t.dirLive--
	}
}

// owners returns the tile bitset holding the line.
func (m *Machine) owners(l cache.Line) uint64 {
	t, s, id := m.lineState(l)
	if s.gen != t.bufGen[id] {
		return 0
	}
	return s.owners
}

// --- payload words --------------------------------------------------------

// wordOf reads the line's payload word (reads never create an entry, so
// the digest's word count moves only on stores — as with the former map).
func (m *Machine) wordOf(l cache.Line) uint64 {
	_, s, _ := m.lineState(l)
	return s.word
}

// setWord stores the line's payload word.
func (m *Machine) setWord(l cache.Line, v uint64) {
	t, s, _ := m.lineState(l)
	if s.flags&slotWord == 0 {
		s.flags |= slotWord
		t.words++
	}
	s.word = v
}

// addWord adds delta to the line's payload word and returns the result.
func (m *Machine) addWord(l cache.Line, delta uint64) uint64 {
	t, s, _ := m.lineState(l)
	if s.flags&slotWord == 0 {
		s.flags |= slotWord
		t.words++
	}
	s.word += delta
	return s.word
}

// --- watch slots ----------------------------------------------------------

// markWatched registers l as watched: from here on, wake-ups for the
// line's pollers are driven by the slot's notify version. The slot stays
// watched for the machine's lifetime — like the former on-demand map
// entries — but the signal itself now lives only while pollers are
// blocked on it.
func (m *Machine) markWatched(l cache.Line) {
	t, s, _ := m.lineState(l)
	if s.flags&slotWatched == 0 {
		s.flags |= slotWatched
		t.watched++
	}
}

// watchVersion samples the line's notify version; pass it to waitWatch to
// sleep without lost wake-ups.
func (m *Machine) watchVersion(l cache.Line) uint64 {
	_, s, _ := m.lineState(l)
	return s.watchVer
}

// waitWatch blocks p until the line's notify version exceeds ver,
// creating the slot's signal on demand (notify frees it again after each
// broadcast). The slot is re-resolved after every wake-up.
func (m *Machine) waitWatch(p *sim.Proc, l cache.Line, ver uint64) {
	for {
		_, s, _ := m.lineState(l)
		if s.watchVer > ver {
			return
		}
		if s.sig == nil {
			s.sig = sim.NewSignal(m.Env)
		}
		sig := s.sig
		sig.Wait(p)
	}
}

// notify wakes pollers of a line after a visible write.
func (m *Machine) notify(l cache.Line) {
	_, s, _ := m.lineState(l)
	if s.flags&slotWatched == 0 {
		return
	}
	s.watchVer++
	if sig := s.sig; sig != nil {
		// Drop the signal before broadcasting: signals exist only while
		// pollers are blocked (the map design kept one per watched line
		// forever, growing the table monotonically over long sweeps).
		s.sig = nil
		sig.Broadcast()
	}
}
