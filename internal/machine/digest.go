package machine

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// StateDigest returns a 64-bit FNV-1a hash over the machine's complete
// observable simulation state: the clock and event counter, the RNG
// state, the coherence directory, the word store, the watch slots,
// every L1/L2 tag array, the serializing-resource counters, the memory
// channel traffic, and the memory-side cache. The paged line tables are
// walked in ascending line order (DDR addresses sort below MCDRAM ones),
// reproducing exactly the sorted-key fold of the former map design — the
// digest is a function of the state alone. Absent pages hold no live
// state, so skipping them leaves the fold unchanged.
//
// Two runs of the same workload on the same configuration and seed must
// produce identical digests — the dynamic counterpart of the static
// determinism analyzer in internal/analysis (see determinism_test.go).
func (m *Machine) StateDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:]) // fnv.Write never fails
	}

	put(math.Float64bits(m.Env.Now()))
	put(m.Env.Seq())
	for _, s := range m.rng.State() {
		put(s)
	}

	put(uint64(m.lines[0].dirLive + m.lines[1].dirLive))
	for k := range m.lines {
		t := &m.lines[k]
		t.eachSlot(func(l uint64, s *lineSlot, id int32) {
			if s.owners != 0 && s.gen == t.bufGen[id] {
				put(l)
				put(s.owners)
			}
		})
	}
	put(uint64(m.lines[0].words + m.lines[1].words))
	for k := range m.lines {
		m.lines[k].eachSlot(func(l uint64, s *lineSlot, _ int32) {
			if s.flags&slotWord != 0 {
				put(l)
				put(s.word)
			}
		})
	}
	put(uint64(m.lines[0].watched + m.lines[1].watched))
	for k := range m.lines {
		m.lines[k].eachSlot(func(l uint64, s *lineSlot, _ int32) {
			if s.flags&slotWatched != 0 {
				put(l)
				put(s.watchVer)
				waiting := 0
				if s.sig != nil {
					waiting = s.sig.Waiting()
				}
				put(uint64(waiting))
			}
		})
	}

	for _, ts := range m.tiles {
		put(ts.l2.Digest())
		put(ts.cha.Acquires())
		put(ts.port.Acquires())
	}
	for _, cs := range m.cores {
		put(cs.l1.Digest())
		put(cs.issue.Acquires())
	}
	for _, ch := range m.Mem.DDR {
		put(ch.LinesRead())
		put(ch.LinesWritten())
	}
	for _, ch := range m.Mem.MCDRAM {
		put(ch.LinesRead())
		put(ch.LinesWritten())
	}
	put(m.Policy.Digest())
	return h.Sum64()
}
