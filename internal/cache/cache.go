// Package cache models the tag arrays of the KNL cache hierarchy: the
// per-core 32 KB 8-way L1D, the per-tile 1 MB 16-way shared L2, and the
// direct-mapped MCDRAM memory-side cache used in cache/hybrid memory mode.
//
// Only tags and MESIF coherence states are tracked — the simulator never
// stores data in modeled caches (benchmark payloads that need real values
// live in the machine's word store).
package cache

import "fmt"

// Line is a cache-line address: the byte address shifted right by 6.
type Line uint64

// LineOf returns the line containing byte address addr.
func LineOf(addr uint64) Line { return Line(addr >> 6) }

// Addr returns the first byte address of the line.
func (l Line) Addr() uint64 { return uint64(l) << 6 }

// State is a MESIF coherence state.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
	Forward
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Forward:
		return "F"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Readable reports whether a cache holding the line in this state can
// service a read without a coherence transaction.
func (s State) Readable() bool { return s != Invalid }

// Writable reports whether a store can hit without a coherence transaction.
func (s State) Writable() bool { return s == Modified || s == Exclusive }

// CanForward reports whether this copy may source a cache-to-cache transfer.
func (s State) CanForward() bool {
	return s == Modified || s == Exclusive || s == Forward
}

// SetAssoc is a set-associative tag array with LRU replacement.
//
// The ways are stored set-major in parallel columns, so a probe scans one
// dense run of tags (128 B for a 16-way set) instead of a run of
// tag/state/LRU records. A tag holds line+1; 0 marks an empty way.
//
// Each set carries an epoch, and a set whose epoch is not the array's
// reads as empty: Reset and Flush advance the array epoch instead of
// clearing the columns, so emptying a tag array is O(1) no matter how
// large it is (the L2 arrays dominate Machine.Reset otherwise — ~10 MB of
// tags across the die per pooled reuse). The next Insert into a stale set
// clears it.
type SetAssoc struct {
	//knl:nostate immutable display name
	name string
	//knl:nostate immutable geometry
	sets int
	//knl:nostate immutable geometry
	ways int
	//knl:nostate immutable geometry: sets-1
	mask  uint64
	tick  uint64
	epoch uint32 // never 0, so zeroed set epochs read stale
	//knl:nostate a stale set's tags read empty and are cleared by its next Insert
	tags []Line // sets*ways: line+1, or 0 for an empty way
	//knl:nostate read only for a non-empty way of a live set, rewritten when the way fills
	states []State // MESIF state of each non-empty way
	//knl:nostate read only for a non-empty way of a live set, rewritten when the way fills
	lrus     []uint64 // last-touch tick of each non-empty way
	setEpoch []uint32 // per set; live iff equal to epoch

	hits, misses, evictions uint64
}

// NewSetAssoc builds a tag array for the given capacity in bytes and
// associativity; sets = capacity / (64 * ways). Capacity must be a multiple
// of 64*ways and sets must be a power of two.
func NewSetAssoc(name string, capacityBytes, ways int) *SetAssoc {
	if capacityBytes <= 0 || ways <= 0 || capacityBytes%(64*ways) != 0 {
		panic(fmt.Sprintf("cache: bad geometry %d bytes / %d ways", capacityBytes, ways))
	}
	sets := capacityBytes / (64 * ways)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: sets %d not a power of two", sets))
	}
	return &SetAssoc{
		name:     name,
		sets:     sets,
		ways:     ways,
		mask:     uint64(sets - 1),
		epoch:    1,
		tags:     make([]Line, sets*ways),
		states:   make([]State, sets*ways),
		lrus:     make([]uint64, sets*ways),
		setEpoch: make([]uint32, sets),
	}
}

// Sets returns the number of sets.
func (c *SetAssoc) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

// CapacityBytes returns the modeled capacity.
func (c *SetAssoc) CapacityBytes() int { return c.sets * c.ways * 64 }

// find returns the index of the way holding l, or -1. Every read path
// goes through it, so lines from before a Reset cannot resurrect.
func (c *SetAssoc) find(l Line) int {
	set := int(uint64(l) & c.mask)
	if c.setEpoch[set] != c.epoch {
		return -1 // stale: empty this epoch
	}
	base := set * c.ways
	for w, t := range c.tags[base : base+c.ways] {
		if t == l+1 {
			return base + w
		}
	}
	return -1
}

// Lookup returns the state of the line (Invalid if absent) and updates LRU
// and hit/miss counters on readable hits.
func (c *SetAssoc) Lookup(l Line) State {
	if i := c.find(l); i >= 0 {
		c.tick++
		c.lrus[i] = c.tick
		c.hits++
		return c.states[i]
	}
	c.misses++
	return Invalid
}

// Peek returns the state of the line without touching LRU or counters.
func (c *SetAssoc) Peek(l Line) State {
	if i := c.find(l); i >= 0 {
		return c.states[i]
	}
	return Invalid
}

// Victim describes a line displaced by Insert.
type Victim struct {
	Line  Line
	State State
}

// Insert places the line with the given state, evicting the LRU way if the
// set is full. It returns the victim (State Invalid if none was displaced).
// Inserting a line that is already present updates its state in place.
// The victim is the first empty way, else the way with the smallest LRU
// tick (the lowest such way on a tie).
func (c *SetAssoc) Insert(l Line, s State) Victim {
	if s == Invalid {
		panic("cache: Insert with Invalid state")
	}
	set := int(uint64(l) & c.mask)
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	if c.setEpoch[set] != c.epoch {
		clear(tags)
		c.setEpoch[set] = c.epoch
	}
	free, lru := -1, -1
	for w, t := range tags {
		if t == 0 {
			if free < 0 {
				free = w
			}
			continue
		}
		if t == l+1 {
			c.states[base+w] = s
			c.tick++
			c.lrus[base+w] = c.tick
			return Victim{State: Invalid}
		}
		if lru < 0 || c.lrus[base+w] < c.lrus[base+lru] {
			lru = w
		}
	}
	target := free
	out := Victim{State: Invalid}
	if target < 0 {
		target = lru
		out = Victim{Line: tags[lru] - 1, State: c.states[base+lru]}
		c.evictions++
	}
	c.tick++
	tags[target] = l + 1
	c.states[base+target] = s
	c.lrus[base+target] = c.tick
	return out
}

// SetState changes the state of a present line; it is a no-op for absent
// lines unless the new state is Invalid, in which case absence is fine.
// Setting Invalid removes the line.
func (c *SetAssoc) SetState(l Line, s State) {
	if i := c.find(l); i >= 0 {
		if s == Invalid {
			c.tags[i] = 0
		}
		c.states[i] = s
	}
}

// Invalidate removes the line and returns its previous state.
func (c *SetAssoc) Invalidate(l Line) State {
	i := c.find(l)
	if i < 0 {
		return Invalid
	}
	c.tags[i] = 0
	return c.states[i]
}

// Flush removes every line (states are discarded) by advancing the epoch;
// the stale sets are cleared lazily as Insert reuses them.
func (c *SetAssoc) Flush() {
	c.bumpEpoch()
}

// Reset empties the tag array and zeroes the LRU clock and counters,
// returning it to the just-constructed state (machine pooling). Like
// Flush it is O(1): pooled machines with large L2 arrays reset in
// constant time instead of re-clearing megabytes of tags.
func (c *SetAssoc) Reset() {
	c.bumpEpoch()
	c.tick = 0
	c.hits, c.misses, c.evictions = 0, 0, 0
}

// bumpEpoch empties every set in O(1). On the (practically unreachable)
// uint32 wraparound the set epochs are cleared for real and the count
// restarts at 1, so a set untouched for 2^32 epochs can never read as
// live again.
func (c *SetAssoc) bumpEpoch() {
	c.epoch++
	if c.epoch == 0 {
		clear(c.setEpoch)
		c.epoch = 1
	}
}

// Stats returns cumulative hit/miss/eviction counters.
func (c *SetAssoc) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}

// Occupancy returns the number of valid lines currently cached.
func (c *SetAssoc) Occupancy() int {
	n := 0
	c.eachLive(func(int) { n++ })
	return n
}

// eachLive calls fn with the index of every non-empty way of every live
// set, in index order.
func (c *SetAssoc) eachLive(fn func(i int)) {
	for set, e := range c.setEpoch {
		if e != c.epoch {
			continue
		}
		for i := set * c.ways; i < (set+1)*c.ways; i++ {
			if c.tags[i] != 0 {
				fn(i)
			}
		}
	}
}
