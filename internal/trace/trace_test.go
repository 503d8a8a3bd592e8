package trace

import (
	"strings"
	"testing"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
)

// runTraced executes a small traced workload: core 0 loads an L1-resident
// line, a remote line and a memory line, and stores once.
func runTraced(t *testing.T, c *Collector) {
	t.Helper()
	m := machine.New(knl.DefaultConfig())
	m.SetTracer(c)
	local := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	remote := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	mem := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	m.Prime(local, 0, cache.Exclusive)
	m.Prime(remote, 20, cache.Exclusive)
	m.Spawn(knl.Place{Tile: 0, Core: 0}, func(th *machine.Thread) {
		th.Load(local, 0)
		th.Load(remote, 0)
		th.Load(mem, 0)
		th.Store(local, 0)
		th.StoreNT(mem, 0)
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorCapturesOps(t *testing.T) {
	c := NewCollector(0)
	runTraced(t, c)
	if c.Len() != 5 {
		t.Fatalf("captured %d records, want 5", c.Len())
	}
	sums := c.Summaries(BySource)
	keys := map[string]bool{}
	for _, s := range sums {
		keys[s.Key] = true
	}
	for _, want := range []string{"load/L1", "load/remote", "load/mem", "store", "store-nt"} {
		if !keys[want] {
			t.Errorf("missing bucket %q (have %v)", want, keys)
		}
	}
	// Latency ordering: L1 < remote < mem.
	med := map[string]float64{}
	for _, s := range sums {
		med[s.Key] = s.Summary.Med
	}
	if !(med["load/L1"] < med["load/remote"] && med["load/remote"] < med["load/mem"]) {
		t.Errorf("latency ordering broken: %v", med)
	}
}

func TestCollectorCapacityDropsOldest(t *testing.T) {
	c := NewCollector(3)
	runTraced(t, c) // 5 ops into capacity 3
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	if c.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", c.Dropped())
	}
	// The survivors are the three most recent (mem load, store, store-nt).
	if c.Records()[0].Source != "mem" {
		t.Errorf("oldest survivor = %+v, want the mem load", c.Records()[0])
	}
	c.Reset()
	if c.Len() != 0 || c.Dropped() != 0 {
		t.Error("reset incomplete")
	}
}

// shiftCollector is the collector's former full-buffer policy: shift every
// record down one slot and append. The ring must retain the same records in
// the same order.
type shiftCollector struct {
	capacity int
	records  []machine.OpRecord
	dropped  uint64
}

func (c *shiftCollector) record(r machine.OpRecord) {
	if c.capacity > 0 && len(c.records) >= c.capacity {
		copy(c.records, c.records[1:])
		c.records[len(c.records)-1] = r
		c.dropped++
		return
	}
	c.records = append(c.records, r)
}

// TestCollectorRingMatchesShift feeds the ring and the shifting reference
// the same stream at capacities 1, 2 and N, reading the ring back at
// irregular points (a read rotates a wrapped ring in place), and checks
// the retained records, their order and the drop count after every record.
func TestCollectorRingMatchesShift(t *testing.T) {
	for _, capacity := range []int{1, 2, 7} {
		ring := NewCollector(capacity)
		ref := &shiftCollector{capacity: capacity}
		for i := 0; i < 40; i++ {
			r := machine.OpRecord{Start: float64(i), End: float64(i) + 1, Core: i % 5, Line: cache.Line(i)}
			ring.Record(r)
			ref.record(r)
			if i%3 != 0 && i != 39 {
				continue // let the ring wrap between reads
			}
			got := ring.Records()
			if len(got) != len(ref.records) || ring.Dropped() != ref.dropped {
				t.Fatalf("cap %d after %d: len %d dropped %d, want %d and %d",
					capacity, i+1, len(got), ring.Dropped(), len(ref.records), ref.dropped)
			}
			for j := range got {
				if got[j] != ref.records[j] {
					t.Fatalf("cap %d after %d: record %d = %+v, want %+v",
						capacity, i+1, j, got[j], ref.records[j])
				}
			}
		}
	}
}

func TestGroupers(t *testing.T) {
	c := NewCollector(0)
	runTraced(t, c)
	byKind := c.Summaries(ByKind)
	total := 0
	for _, s := range byKind {
		total += s.Count
	}
	if total != 5 {
		t.Errorf("kind buckets cover %d records, want 5", total)
	}
	byCore := c.Summaries(ByCore)
	if len(byCore) != 1 || byCore[0].Key != "core0" {
		t.Errorf("core grouping = %+v", byCore)
	}
}

func TestBusyFraction(t *testing.T) {
	c := NewCollector(0)
	runTraced(t, c)
	busy := c.BusyFraction()
	if f := busy[0]; f <= 0 || f > 1 {
		t.Errorf("busy fraction = %v, want in (0,1]", f)
	}
	if empty := NewCollector(0).BusyFraction(); empty != nil {
		t.Error("empty collector should return nil")
	}
}

func TestWriteCSV(t *testing.T) {
	c := NewCollector(0)
	runTraced(t, c)
	var b strings.Builder
	if err := c.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 6 { // header + 5 records
		t.Fatalf("csv has %d lines, want 6", len(lines))
	}
	if !strings.HasPrefix(lines[0], "start_ns,") {
		t.Errorf("bad header %q", lines[0])
	}
	if !strings.Contains(b.String(), "load") {
		t.Error("csv missing op kinds")
	}
}

func TestUntracedMachineUnaffected(t *testing.T) {
	// SetTracer(nil) must be safe and cost nothing.
	m := machine.New(knl.DefaultConfig())
	m.SetTracer(nil)
	b := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	m.Spawn(knl.Place{}, func(th *machine.Thread) { th.Load(b, 0) })
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTraceCollective traces a tuned barrier end-to-end: the distribution
// must contain both cheap cached polls (L1) and coherence misses (remote).
func TestTraceCollective(t *testing.T) {
	cfg := knl.DefaultConfig()
	m := machine.New(cfg)
	c := NewCollector(0)
	m.SetTracer(c)
	// A minimal 2-thread flag ping-pong (the barrier's building block).
	flag := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	m.Spawn(knl.Place{Tile: 0, Core: 0}, func(th *machine.Thread) {
		for r := 1; r <= 8; r += 2 {
			th.StoreWord(flag, 0, uint64(r))
			th.WaitWordGE(flag, 0, uint64(r+1))
		}
	})
	m.Spawn(knl.Place{Tile: 5, Core: 10}, func(th *machine.Thread) {
		for r := 1; r <= 8; r += 2 {
			th.WaitWordGE(flag, 0, uint64(r))
			th.StoreWord(flag, 0, uint64(r+1))
		}
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	sums := c.Summaries(ByKind)
	kinds := map[string]int{}
	for _, s := range sums {
		kinds[s.Key] = s.Count
	}
	if kinds["load"] == 0 || kinds["store"] == 0 {
		t.Fatalf("ping-pong traced %v, want loads and stores", kinds)
	}
	// Both fast (cached re-read) and slow (post-invalidation) loads occur.
	var loads []float64
	for _, r := range c.Records() {
		if r.Kind == machine.OpLoad {
			loads = append(loads, r.Latency())
		}
	}
	lo, hi := loads[0], loads[0]
	for _, l := range loads {
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if hi < 5*lo {
		t.Errorf("poll loads should span cached (%.1f) to coherence-miss (%.1f)", lo, hi)
	}
}
