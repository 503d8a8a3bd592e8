package main

import (
	"fmt"

	"knlcap/internal/bench"
	"knlcap/internal/cache"
	"knlcap/internal/coll"
	"knlcap/internal/core"
	"knlcap/internal/knl"
	"knlcap/internal/msort"
	"knlcap/internal/units"
)

// A point is one call into a public entry point of the simulator. Its
// output is checked bit-exactly against the goldens and its host time is
// recorded under span.
type point struct {
	name string // golden key, unique within the workload
	span string // layer span the call is attributed to
	run  func() any
}

// A batch groups points. The points of a serial batch run one after
// another, each fanning its own measurement points over the workers through
// Options.Parallel; the points of a fanned batch are independent
// single-threaded simulations spread over the workers by the benchmark.
type batch struct {
	points []point
	fan    bool
}

// inputs are everything a workload pass derives from the workload seed.
type inputs struct {
	seed    int // workload seed, 1..goldenSeeds
	workers int
}

// optSeed is the bench.Options.Seed of the workload seed; seed 1 is the
// default of bench.DefaultOptions.
func (in inputs) optSeed() uint64 { return uint64(in.seed) }

// config returns the cluster/memory mode with the yield seed of the
// workload seed; seed 1 keeps knl.DefaultConfig's floorplan.
func (in inputs) config(cm knl.ClusterMode, mm knl.MemoryMode) knl.Config {
	cfg := knl.DefaultConfig().WithModes(cm, mm)
	cfg.YieldSeed += uint64(in.seed - 1)
	return cfg
}

// A workload is a fixed list of artifact computations.
type workload struct {
	name string
	// parts names the golden files of the workload: its own name for a
	// part, the parts it joins for a joined workload.
	parts []string
	// configs are the machine configurations the workload simulates; set-up
	// builds one machine of each.
	configs func(in inputs) []knl.Config
	plan    func(in inputs) []batch
	bands   func(out map[string]any) []bandRow
}

// parts are the three artifact slices, each with goldens of its own.
var parts = []workload{
	{name: "c2c", parts: []string{"c2c"}, configs: c2cConfigs, plan: planC2C, bands: c2cBands},
	{name: "stream", parts: []string{"stream"}, configs: streamConfigs, plan: planStream, bands: streamBands},
	{name: "sort", parts: []string{"sort"}, configs: sortConfigs, plan: planSort, bands: sortBands},
}

// workloads are the benchmark's workloads, as BENCHMARK.json lists them.
// c2c and sort run as one workload so that two workloads fit long runs into
// the benchmark's time limit: on a shared host, runs must average tens of
// seconds of drifting throughput to repeat. A pass of each workload takes
// about 10 s on two cores.
var workloads = []workload{
	join("c2c-sort", part("c2c"), part("sort")),
	part("stream"),
}

func part(name string) workload {
	for _, w := range parts {
		if w.name == name {
			return w
		}
	}
	panic("perfbench: no part " + name)
}

// join runs the points of ws one workload after another in every pass.
func join(name string, ws ...workload) workload {
	j := workload{name: name}
	for _, w := range ws {
		j.parts = append(j.parts, w.parts...)
	}
	j.configs = func(in inputs) []knl.Config {
		var out []knl.Config
		for _, w := range ws {
			out = append(out, w.configs(in)...)
		}
		return out
	}
	j.plan = func(in inputs) []batch {
		var out []batch
		for _, w := range ws {
			out = append(out, w.plan(in)...)
		}
		return out
	}
	j.bands = func(o map[string]any) []bandRow {
		var out []bandRow
		for _, w := range ws {
			out = append(out, w.bands(o)...)
		}
		return out
	}
	return j
}

// findWorkload looks a name up among the workloads and then the parts.
func findWorkload(name string) (workload, bool) {
	for _, w := range append(workloads[:len(workloads):len(workloads)], parts...) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// c2c: Table I for the five flat cluster modes at default effort with the
// multi-line fits, then Figures 6-8 on SNC4-flat, as knl-bench -table 1 and
// knl-coll compute them. Single- and few-thread cache-line traffic: tag
// array work, load/RFO walks, pooled machine resets, collective flags.
func c2cConfigs(in inputs) []knl.Config {
	var out []knl.Config
	for _, cm := range knl.ClusterModes {
		out = append(out, in.config(cm, knl.Flat))
	}
	return out
}

func planC2C(in inputs) []batch {
	o := bench.DefaultOptions()
	o.Seed = in.optSeed()
	o.Parallel = in.workers
	var pts []point
	cfgs := c2cConfigs(in)
	for _, cfg := range cfgs {
		n := cfg.Cluster.String()
		pts = append(pts,
			point{n + "/latency", "bench.cache_latencies", func() any { return bench.MeasureCacheLatencies(cfg, o, 0) }},
			point{n + "/bandwidth", "bench.cache_bandwidths", func() any { return bench.MeasureCacheBandwidths(cfg, o, nil) }},
			point{n + "/congestion", "bench.congestion", func() any { return bench.MeasureCongestion(cfg, o, 0) }},
			point{n + "/contention", "bench.contention", func() any { return bench.MeasureContention(cfg, o, nil) }},
		)
	}
	for _, cfg := range cfgs {
		pts = append(pts, point{cfg.Cluster.String() + "/multiline", "bench.multiline",
			func() any { return bench.MeasureMultiLine(cfg, o, cache.Exclusive, nil) }})
	}
	// Figures 6-8 use knl-coll's settings: SNC4-flat and a 1 µs window.
	co := o
	co.WindowNs = 1e6
	cfg := in.config(knl.SNC4, knl.Flat)
	model := core.Default()
	for _, op := range []coll.Op{coll.Barrier, coll.Bcast, coll.Reduce} {
		for _, sc := range []knl.Schedule{knl.Compact, knl.Scatter} {
			pts = append(pts, point{fmt.Sprintf("coll/%v/%s", op, schedName(sc)), "coll.figure",
				func() any { return coll.MeasureFigure(cfg, model, co, op, sc, nil) }})
		}
	}
	return []batch{{points: pts}}
}

func schedName(s knl.Schedule) string {
	switch s {
	case knl.Compact:
		return "compact"
	case knl.Scatter:
		return "scatter"
	default:
		return "filltiles"
	}
}

// stream: Table II for SNC4 and A2A in flat and cache memory modes at quick
// effort, as knl-bench -table 2 -quick computes each column: memory
// latencies, max-median NT bandwidths over thread counts and STREAM peaks.
// Many concurrent streaming threads load the event heap, memory channels,
// cluster mapper and, in cache mode, the MCDRAM side cache.
func streamConfigs(in inputs) []knl.Config {
	var out []knl.Config
	for _, mm := range []knl.MemoryMode{knl.Flat, knl.CacheMode} {
		for _, cm := range []knl.ClusterMode{knl.SNC4, knl.A2A} {
			out = append(out, in.config(cm, mm))
		}
	}
	return out
}

var streamKernels = []bench.StreamKernel{bench.KernelCopy, bench.KernelRead, bench.KernelWrite, bench.KernelTriad}

func planStream(in inputs) []batch {
	o := bench.DefaultOptions().Quick()
	o.Seed = in.optSeed()
	o.Parallel = in.workers
	var pts []point
	for _, cfg := range streamConfigs(in) {
		col := cfg.Name()
		pts = append(pts, point{col + "/latency", "bench.mem_latencies",
			func() any { return bench.MeasureMemLatencies(cfg, o) }})
		kinds := []knl.MemKind{knl.DDR}
		if cfg.Memory == knl.Flat {
			kinds = append(kinds, knl.MCDRAM)
		}
		for _, kind := range kinds {
			for _, k := range streamKernels {
				pts = append(pts, point{fmt.Sprintf("%s/%v/%v-nt", col, kind, k), "bench.max_median_bw",
					func() any { return bench.MaxMedianBandwidth(cfg, o, k, kind, true, nil, nil) }})
			}
			// Table II's STREAM peaks: 64 threads on DDR, 128 on MCDRAM.
			threads := 64
			if kind == knl.MCDRAM {
				threads = 128
			}
			for _, k := range []bench.StreamKernel{bench.KernelCopy, bench.KernelTriad} {
				pts = append(pts, point{fmt.Sprintf("%s/%v/%v-stream", col, kind, k), "bench.stream_peak",
					func() any { return bench.MeasureStreamPeak(cfg, o, k, kind, threads, knl.FillTiles) }})
			}
		}
	}
	return []batch{{points: pts}}
}

// sort: the Figure 10 simulated sort at sortLines lines on SNC4-flat, with
// the 1 KB overhead fit first as knl-sort does, nine thread counts on DDR
// and MCDRAM, and the model curves. The only artifact still on goroutine
// Threads; it builds a fresh machine per point.
const sortLines = 16384

var sortThreads = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

func sortConfigs(in inputs) []knl.Config { return []knl.Config{in.config(knl.SNC4, knl.Flat)} }

// sortModel is the model half of one Figure 10 point (msort.Figure10Point
// without the simulated time).
type sortModel struct {
	MemLat, MemBW, FullLat, FullBW units.Nanos
	OverCutoff                     bool
}

func planSort(in inputs) []batch {
	cfg := in.config(knl.SNC4, knl.Flat)
	model := core.Default()
	var oh core.OverheadModel
	fit := point{"fit-overhead", "msort.fit_overhead", func() any {
		oh = msort.FitOverheadParallel(cfg, model, knl.DDR, nil, in.workers)
		return oh
	}}
	// One fanned batch per thread count: the DDR and MCDRAM simulations of
	// a count take about as long, so the two workers stay busy together.
	bs := []batch{{points: []point{fit}}}
	for _, tc := range sortThreads {
		var fig []point
		for _, kind := range []knl.MemKind{knl.DDR, knl.MCDRAM} {
			name := fmt.Sprintf("fig10/%v/t%d", kind, tc)
			fig = append(fig,
				point{name + "/measured", "msort.simulate", func() any {
					return msort.Simulate(cfg, msort.DefaultSimParams(sortLines, tc, kind))
				}},
				// Every count is a power of two no larger than sortLines, so
				// msort's effective thread count is tc itself.
				point{name + "/model", "core.sort_model", func() any {
					mp := core.DefaultSortParams(model, sortLines, tc, kind)
					return sortModel{
						MemLat:     model.SortCost(mp, false),
						MemBW:      model.SortCost(mp, true),
						FullLat:    model.FullSortCost(mp, oh, false),
						FullBW:     model.FullSortCost(mp, oh, true),
						OverCutoff: model.EfficiencyCutoff(mp, oh),
					}
				}})
		}
		bs = append(bs, batch{points: fig, fan: true})
	}
	return bs
}
