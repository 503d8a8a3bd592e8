package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A span is the host time of one call the benchmark makes into a layer.
type span struct {
	Name     string  `json:"name"`
	Start    float64 `json:"start_s"` // seconds since the run started
	End      float64 `json:"end_s"`
	Parent   int     `json:"parent"` // index of the enclosing span, -1 for none
	Workload string  `json:"workload"`
	Seed     int     `json:"seed"`
	Point    int     `json:"point"` // index of the point in its pass, -1 outside points
}

// tracer keeps the spans of a traced run in memory; a nil tracer records
// nothing.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	seed     int
	spans    []span
}

func newTracer(t0 time.Time, workload string, seed int) *tracer {
	return &tracer{t0: t0, workload: workload, seed: seed}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, point int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent,
		Workload: t.workload, Seed: t.seed, Point: point})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// do runs fn inside a span, with the span's name as a CPU-profile label so
// that profile samples of fn, and of the workers it starts, carry it.
func (t *tracer) do(name string, parent, point int, fn func()) {
	if t == nil {
		fn()
		return
	}
	i := t.begin(name, parent, point)
	pprof.Do(context.Background(), pprof.Labels("span", name), func(context.Context) { fn() })
	t.end(i)
}

// sumSeconds totals the duration of the spans of each name.
func (t *tracer) sumSeconds() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += s.End - s.Start
	}
	return out
}

// counters are process-wide runtime readings; their differences over a
// pass are the pass's cost.
type counters struct {
	wall                  time.Time
	cpuS                  float64 // user + system CPU seconds
	allocBytes, allocObjs uint64
	gcCycles              uint64
	gcCPUS                float64
	peakRSSMB             float64
}

var metricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readCounters() counters {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(metricNames))
	for i, n := range metricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return counters{
		wall:       time.Now(),
		cpuS:       tv(ru.Utime) + tv(ru.Stime),
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPUS:     s[3].Value.Float64(),
		peakRSSMB:  float64(ru.Maxrss) * 1024 / 1e6, // Maxrss is in KiB on Linux
	}
}

// layerOf attributes a profiled function to a per-layer metric: the
// simulator package it belongs to, runtime.sched for the goroutine
// scheduler and channel operations, and other for the rest (the runtime's
// allocator and collector, the standard library, the benchmark itself).
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "knlcap/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		if selfLayers[pkg] {
			return pkg
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") {
		for _, p := range schedFuncs {
			if strings.HasPrefix(fn, p) {
				return "runtime.sched"
			}
		}
	}
	return "other"
}

// selfLayers are the packages whose profile self time is reported.
var selfLayers = map[string]bool{
	"sim": true, "cache": true, "machine": true, "coll": true, "cluster": true,
	"mesh": true, "memory": true, "memmode": true, "exp": true, "bench": true, "msort": true,
}

// schedFuncs are the runtime functions of goroutine handoff: channel
// operations, parking and readying, the scheduler loop, and the OS-thread
// sleeps and wakeups under them.
var schedFuncs = []string{
	"runtime.chanrecv", "runtime.chansend", "runtime.recv", "runtime.send", "runtime.selectgo",
	"runtime.sellock", "runtime.selunlock", "runtime.casgstatus", "runtime.gopark", "runtime.goready",
	"runtime.ready", "runtime.park_m", "runtime.mcall", "runtime.gogo", "runtime.gosched",
	"runtime.goschedImpl", "runtime.schedule", "runtime.findRunnable", "runtime.execute",
	"runtime.runqget", "runtime.runqput", "runtime.runqgrab", "runtime.runqsteal", "runtime.stealWork",
	"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.mPark", "runtime.resetspinning",
	"runtime.notesleep", "runtime.notewakeup", "runtime.futex", "runtime.lock2", "runtime.unlock2",
	"runtime.procyield", "runtime.osyield", "runtime.usleep", "runtime.checkTimers", "runtime.netpoll",
	"runtime.acquirep", "runtime.releasep", "runtime.handoffp", "runtime.semasleep", "runtime.semawakeup",
	"runtime.pidle", "runtime.globrunq", "runtime.runqempty", "runtime.acquireSudog", "runtime.releaseSudog",
	"runtime.chanpark", "runtime.(*guintptr)", "runtime.(*timeHistogram)", "runtime.nanotime",
}

// selfSeconds splits the CPU time of a pprof CPU profile by the layer of
// the leaf function of each sample.
func selfSeconds(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if len(s.locs) == 0 || p.valueIdx >= len(s.values) {
			continue
		}
		name := p.strings[p.funcName[p.leaf[s.locs[0]]]]
		out[layerOf(name)] += float64(s.values[p.valueIdx]) / 1e9
	}
	return out, nil
}

// The subset of the profile.proto message that self time needs.
type profile struct {
	samples  []sample
	leaf     map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]int64  // function id -> string table index
	strings  []string
	valueIdx int // index of the cpu/nanoseconds value
}

type sample struct {
	locs   []uint64
	values []int64
}

var errProto = errors.New("malformed protobuf")

// fields iterates the fields of one protobuf message, passing the varint
// value or the length-delimited bytes of each.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field, packed (data) or not (v).
func varints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{leaf: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	var sampleTypes [][2]int64 // (type, unit) string indices
	err := fields(b, func(num int, _ uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := fields(data, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2: // sample
			var s sample
			var vals []uint64
			err := fields(data, func(n int, v uint64, d []byte) (err error) {
				switch n {
				case 1:
					s.locs, err = varints(s.locs, v, d)
				case 2:
					vals, err = varints(vals, v, d)
				}
				return err
			})
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id, fnID uint64
			seenLine := false
			err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined function
					if seenLine {
						return nil
					}
					seenLine = true
					return fields(d, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fnID = lv
						}
						return nil
					})
				}
				return nil
			})
			p.leaf[id] = fnID
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.valueIdx = -1
	for i, vt := range sampleTypes {
		if vt[0] < int64(len(p.strings)) && p.strings[vt[0]] == "cpu" {
			p.valueIdx = i
		}
	}
	if p.valueIdx < 0 {
		return nil, errors.New("no cpu sample type")
	}
	for _, n := range p.funcName {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}
