package cache

import (
	"math"
	"testing"

	"knlcap/internal/stats"
)

// refSetAssoc is the array-of-records tag array SetAssoc replaced: one
// {line, state, epoch, lru} entry per way, live only while its epoch
// matches the array's. It is the reference model of the differential test
// below; the column layout must match it op for op, down to the digest.
type refSetAssoc struct {
	sets, ways int
	tick       uint64
	epoch      uint32
	entries    []refEntry

	hits, misses, evictions uint64
}

type refEntry struct {
	line  Line
	state State
	epoch uint32
	lru   uint64
}

func newRefSetAssoc(capacityBytes, ways int) *refSetAssoc {
	sets := capacityBytes / (64 * ways)
	return &refSetAssoc{sets: sets, ways: ways, entries: make([]refEntry, sets*ways)}
}

func (c *refSetAssoc) live(e *refEntry) bool { return e.state != Invalid && e.epoch == c.epoch }

func (c *refSetAssoc) set(l Line) []refEntry {
	base := int(uint64(l)&uint64(c.sets-1)) * c.ways
	return c.entries[base : base+c.ways]
}

func (c *refSetAssoc) find(l Line) *refEntry {
	set := c.set(l)
	for w := range set {
		if e := &set[w]; c.live(e) && e.line == l {
			return e
		}
	}
	return nil
}

func (c *refSetAssoc) Lookup(l Line) State {
	if e := c.find(l); e != nil {
		c.tick++
		e.lru = c.tick
		c.hits++
		return e.state
	}
	c.misses++
	return Invalid
}

func (c *refSetAssoc) Peek(l Line) State {
	if e := c.find(l); e != nil {
		return e.state
	}
	return Invalid
}

func (c *refSetAssoc) Insert(l Line, s State) Victim {
	set := c.set(l)
	var free, lru *refEntry
	for w := range set {
		e := &set[w]
		if !c.live(e) {
			if free == nil {
				free = e
			}
			continue
		}
		if e.line == l {
			e.state = s
			c.tick++
			e.lru = c.tick
			return Victim{State: Invalid}
		}
		if lru == nil || e.lru < lru.lru {
			lru = e
		}
	}
	target, out := free, Victim{State: Invalid}
	if target == nil {
		target = lru
		out = Victim{Line: lru.line, State: lru.state}
		c.evictions++
	}
	c.tick++
	*target = refEntry{line: l, state: s, epoch: c.epoch, lru: c.tick}
	return out
}

func (c *refSetAssoc) SetState(l Line, s State) {
	if e := c.find(l); e != nil {
		e.state = s
	}
}

func (c *refSetAssoc) Invalidate(l Line) State {
	if e := c.find(l); e != nil {
		s := e.state
		e.state = Invalid
		return s
	}
	return Invalid
}

func (c *refSetAssoc) bumpEpoch() {
	c.epoch++
	if c.epoch == 0 {
		clear(c.entries)
	}
}

func (c *refSetAssoc) Flush() { c.bumpEpoch() }

func (c *refSetAssoc) Reset() {
	c.bumpEpoch()
	c.tick = 0
	c.hits, c.misses, c.evictions = 0, 0, 0
}

func (c *refSetAssoc) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}

func (c *refSetAssoc) Occupancy() int {
	n := 0
	for i := range c.entries {
		if c.live(&c.entries[i]) {
			n++
		}
	}
	return n
}

func (c *refSetAssoc) Digest() uint64 {
	d := newDigester()
	d.put(c.tick)
	d.put(c.hits)
	d.put(c.misses)
	d.put(c.evictions)
	for i := range c.entries {
		e := &c.entries[i]
		if !c.live(e) {
			continue
		}
		d.put(uint64(i))
		d.put(uint64(e.line))
		d.put(uint64(e.state))
		d.put(e.lru)
	}
	return d.sum()
}

// diffTagArrays runs ops random operations on a SetAssoc and the reference
// model side by side and fails on the first divergence of a return value,
// the counters, the occupancy or the digest. Lines come from a few hot
// sets (so sets fill and evict) plus a sprinkling of arbitrary ones; the
// rare Flush and Reset ops exercise stale sets. startEpoch, when nonzero,
// starts both arrays just below that epoch so the run crosses it.
func diffTagArrays(t *testing.T, capacityBytes, ways, ops int, startEpoch uint32, seed uint64) {
	t.Helper()
	got := NewSetAssoc("dut", capacityBytes, ways)
	ref := newRefSetAssoc(capacityBytes, ways)
	if startEpoch != 0 {
		got.epoch, ref.epoch = startEpoch, startEpoch
	}
	sets := got.Sets()
	hot := []int{0, 1, sets / 2, sets - 1}
	rng := stats.NewRNG(seed)
	line := func() Line {
		if rng.Intn(8) == 0 {
			return Line(rng.Uint64() >> 8)
		}
		// Twice the associativity of distinct lines per hot set.
		return Line(hot[rng.Intn(len(hot))] + sets*rng.Intn(2*ways))
	}
	state := func() State { return State(1 + rng.Intn(4)) }
	for op := 0; op < ops; op++ {
		l := line()
		var what string
		switch r := rng.Intn(100); {
		case r < 35:
			what = "Insert"
			s := state()
			if g, w := got.Insert(l, s), ref.Insert(l, s); g != w {
				t.Fatalf("op %d: Insert(%d, %v) = %+v, reference %+v", op, l, s, g, w)
			}
		case r < 60:
			what = "Lookup"
			if g, w := got.Lookup(l), ref.Lookup(l); g != w {
				t.Fatalf("op %d: Lookup(%d) = %v, reference %v", op, l, g, w)
			}
		case r < 70:
			what = "Peek"
			if g, w := got.Peek(l), ref.Peek(l); g != w {
				t.Fatalf("op %d: Peek(%d) = %v, reference %v", op, l, g, w)
			}
		case r < 82:
			what = "SetState"
			s := state()
			if rng.Intn(3) == 0 {
				s = Invalid
			}
			got.SetState(l, s)
			ref.SetState(l, s)
		case r < 97:
			what = "Invalidate"
			if g, w := got.Invalidate(l), ref.Invalidate(l); g != w {
				t.Fatalf("op %d: Invalidate(%d) = %v, reference %v", op, l, g, w)
			}
		case r < 99:
			what = "Flush"
			got.Flush()
			ref.Flush()
		default:
			what = "Reset"
			got.Reset()
			ref.Reset()
		}
		gh, gm, ge := got.Stats()
		rh, rm, re := ref.Stats()
		if gh != rh || gm != rm || ge != re {
			t.Fatalf("op %d (%s): stats %d/%d/%d, reference %d/%d/%d", op, what, gh, gm, ge, rh, rm, re)
		}
		if g, w := got.Occupancy(), ref.Occupancy(); g != w {
			t.Fatalf("op %d (%s): occupancy %d, reference %d", op, what, g, w)
		}
		if g, w := got.Digest(), ref.Digest(); g != w {
			t.Fatalf("op %d (%s): digest %#x, reference %#x", op, what, g, w)
		}
	}
}

// TestSetAssocMatchesReference pins the column layout to the record layout
// it replaced on the L1 (64 sets x 8 ways) and L2 (1024 x 16) geometries.
func TestSetAssocMatchesReference(t *testing.T) {
	for _, g := range []struct {
		name           string
		capacity, ways int
		ops            int
		startEpoch     uint32
		seed           uint64
	}{
		{"L1", 32 << 10, 8, 20000, 0, 1},
		{"L2", 1 << 20, 16, 3000, 0, 2},
		{"L1-wrap", 32 << 10, 8, 5000, math.MaxUint32 - 3, 3},
	} {
		t.Run(g.name, func(t *testing.T) {
			diffTagArrays(t, g.capacity, g.ways, g.ops, g.startEpoch, g.seed)
		})
	}
}

// TestSetAssocEpochWraparound: a set left stale across the uint32 epoch
// wraparound must never read as live again, not even when the epoch comes
// round to the value the set was last written at.
func TestSetAssocEpochWraparound(t *testing.T) {
	c := NewSetAssoc("L1", 32<<10, 8)
	c.epoch = math.MaxUint32 - 1
	stale := Line(3)
	c.Insert(stale, Modified)
	staleEpoch := c.epoch
	c.Flush() // MaxUint32
	c.Flush() // wraps
	if c.epoch == 0 {
		t.Fatal("epoch wrapped to 0, the value of a never-written set")
	}
	if c.Peek(stale) != Invalid || c.Occupancy() != 0 {
		t.Fatalf("line survived the wraparound: Peek %v, occupancy %d", c.Peek(stale), c.Occupancy())
	}
	// Stand in for 2^32 further flushes that never touch the stale set.
	c.epoch = staleEpoch
	if got := c.Peek(stale); got != Invalid {
		t.Fatalf("stale set came back to life at its old epoch: Peek = %v", got)
	}
	if v := c.Insert(stale+Line(c.Sets()), Shared); v.State != Invalid {
		t.Fatalf("insert into the stale set evicted %+v", v)
	}
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy %d after one insert into an emptied set, want 1", c.Occupancy())
	}
}

// BenchmarkSetAssocProbe measures the probe path at L2 geometry: lookups
// that hit and miss in full sets, and inserts that evict. It must not
// allocate (ci.sh gates allocs/op at 0).
func BenchmarkSetAssocProbe(b *testing.B) {
	c := NewSetAssoc("L2", 1<<20, 16)
	sets := Line(c.Sets())
	for l := Line(0); l < 16*sets; l++ {
		c.Insert(l, Exclusive)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := Line(i) % (20 * sets)
		if c.Lookup(l) == Invalid {
			c.Insert(l, Shared)
		}
	}
}
