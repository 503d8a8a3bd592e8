// Package trace collects and analyzes per-operation records from the
// simulated machine: latency distributions by source class (the raw
// material of capability models), per-core activity, and CSV export for
// external tooling. Install a Collector with machine.SetTracer.
package trace

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"knlcap/internal/machine"
	"knlcap/internal/stats"
)

// Collector buffers operation records up to a capacity (0 = unbounded);
// beyond it, the earliest records are dropped and counted. A full
// collector is a ring: Record overwrites the oldest record in O(1), and
// readers see the records oldest first.
type Collector struct {
	capacity int
	records  []machine.OpRecord
	head     int // index of the oldest record once the ring is full
	dropped  uint64
}

var _ machine.Tracer = (*Collector)(nil)

// NewCollector builds a collector with the given capacity (0 = unbounded).
func NewCollector(capacity int) *Collector {
	return &Collector{capacity: capacity}
}

// Record implements machine.Tracer.
func (c *Collector) Record(r machine.OpRecord) {
	if c.capacity > 0 && len(c.records) >= c.capacity {
		c.records[c.head] = r
		c.head++
		if c.head == len(c.records) {
			c.head = 0
		}
		c.dropped++
		return
	}
	c.records = append(c.records, r)
}

// Len returns the number of buffered records.
func (c *Collector) Len() int { return len(c.records) }

// Dropped returns how many early records were displaced.
func (c *Collector) Dropped() uint64 { return c.dropped }

// Records returns the buffered records, oldest first (shared slice; do not
// mutate). A wrapped ring is rotated in place, once per wrap-around.
func (c *Collector) Records() []machine.OpRecord {
	if c.head != 0 {
		slices.Reverse(c.records[:c.head])
		slices.Reverse(c.records[c.head:])
		slices.Reverse(c.records)
		c.head = 0
	}
	return c.records
}

// Reset clears the buffer.
func (c *Collector) Reset() {
	c.records = c.records[:0]
	c.head = 0
	c.dropped = 0
}

// GroupKey selects how Summaries buckets records.
type GroupKey func(machine.OpRecord) string

// BySource groups load records by where the data came from.
func BySource(r machine.OpRecord) string {
	if r.Kind != machine.OpLoad {
		return r.Kind.String()
	}
	return "load/" + r.Source
}

// ByCore groups records by issuing core.
func ByCore(r machine.OpRecord) string { return fmt.Sprintf("core%d", r.Core) }

// ByKind groups records by operation kind.
func ByKind(r machine.OpRecord) string { return r.Kind.String() }

// GroupSummary is the latency distribution of one bucket.
type GroupSummary struct {
	Key     string
	Count   int
	Summary stats.Summary
}

// Summaries reduces the buffered records into per-bucket latency
// distributions, sorted by key.
func (c *Collector) Summaries(key GroupKey) []GroupSummary {
	buckets := map[string][]float64{}
	for _, r := range c.Records() {
		k := key(r)
		buckets[k] = append(buckets[k], r.Latency())
	}
	keys := make([]string, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]GroupSummary, 0, len(keys))
	for _, k := range keys {
		out = append(out, GroupSummary{
			Key:     k,
			Count:   len(buckets[k]),
			Summary: stats.Summarize(buckets[k]),
		})
	}
	return out
}

// BusyFraction returns, per core, the fraction of the observed interval
// spent inside traced operations (an activity profile, not a precise
// utilization: streams are untraced).
func (c *Collector) BusyFraction() map[int]float64 {
	if len(c.records) == 0 {
		return nil
	}
	var lo, hi float64
	busy := map[int]float64{}
	for i, r := range c.Records() {
		if i == 0 || r.Start < lo {
			lo = r.Start
		}
		if r.End > hi {
			hi = r.End
		}
		busy[r.Core] += r.Latency()
	}
	span := hi - lo
	if span <= 0 {
		return nil
	}
	for core := range busy {
		busy[core] /= span
	}
	return busy
}

// WriteCSV dumps the records for external analysis.
func (c *Collector) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "start_ns,end_ns,core,kind,source,line"); err != nil {
		return err
	}
	for _, r := range c.Records() {
		if _, err := fmt.Fprintf(w, "%.3f,%.3f,%d,%s,%s,%d\n",
			r.Start, r.End, r.Core, r.Kind, r.Source, r.Line); err != nil {
			return err
		}
	}
	return nil
}
