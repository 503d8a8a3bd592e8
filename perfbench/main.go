// Command perfbench is the repository's end-to-end benchmark: the host
// cost of regenerating the paper's artifacts, with every simulated output
// checked bit-exactly against recorded goldens and, in a separate traced
// run, the cost split by layer. See README.md.
//
//	perfbench --workload c2c-sort|stream --seed N --seconds S --trace 0|1
//	perfbench --workload c2c|stream|sort --seed N --record   # rewrite a part's goldens for seed N
//	perfbench compare DIR_A DIR_B              # compare two sets of records
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The memo cache is off: every
// point simulates, as in a cold regeneration of results/.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"knlcap/internal/exp"
	"knlcap/internal/machine"
	"knlcap/internal/stats"
)

// Set-up runs setupBlocks blocks of setupPerBlock set-ups each; setup_s is
// the median over the blocks of the mean set-up time in the block.
const (
	setupBlocks   = 7
	setupPerBlock = 8
	setupReps     = setupBlocks * setupPerBlock
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"}, {"cpu_s", "s"}, {"setup_s", "s"}, {"alloc_mb", "MB"}, {"paper_err_pct", "%"},
}

// perLayer lists the metrics of a traced run, in print order. Every one is
// reported on every workload; a layer the workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"runtime.sched_s", "s"}, {"msort.simulate_s", "s"}, {"msort.fit_overhead_s", "s"},
	{"sim.self_s", "s"}, {"bench.max_median_bw_s", "s"}, {"bench.stream_peak_s", "s"},
	{"cache.self_s", "s"}, {"bench.cache_bandwidths_s", "s"}, {"bench.multiline_s", "s"},
	{"bench.cache_latencies_s", "s"}, {"bench.contention_s", "s"}, {"bench.congestion_s", "s"},
	{"coll.figure_s", "s"}, {"coll.self_s", "s"},
	{"runtime.gc_s", "s"}, {"runtime.mallocs", "count"}, {"runtime.gc_cycles", "count"},
	{"machine.new_s", "s"}, {"machine.reset_s", "s"}, {"machine.self_s", "s"},
	{"cluster.self_s", "s"}, {"mesh.self_s", "s"}, {"memory.self_s", "s"}, {"memmode.self_s", "s"},
	{"bench.mem_latencies_s", "s"}, {"core.sort_model_s", "s"}, {"exp.self_s", "s"},
	{"bench.self_s", "s"}, {"msort.self_s", "s"},
	{"other.self_s", "s"}, {"runtime.peak_rss_mb", "MB"}, {"trace.overhead_s", "s"},
}

func main() {
	var out bytes.Buffer
	code := run(os.Args[1:], &out)
	if _, err := os.Stdout.Write(out.Bytes()); err != nil {
		code = 1
	}
	os.Exit(code)
}

// run executes the command line and leaves what it prints in stdout.
func run(args []string, stdout *bytes.Buffer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: c2c-sort or stream, or a part: c2c, stream or sort")
	seed := fs.Int("seed", 1, "seed; selects workload seed 1 + (seed-1) mod 8")
	seconds := fs.Float64("seconds", 10, "measure whole passes that end within this many seconds")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	rec := fs.Bool("record", false, "run one pass and write its outputs as the goldens of the workload seed")
	goldenDir := fs.String("golden", filepath.Join("perfbench", "golden"), "goldens directory")
	outDir := fs.String("out", ".bench_build", "directory for records, spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload c2c-sort|stream|c2c|sort, --seconds > 0 and --trace 0|1")
		return 2
	}

	procs := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); procs > n {
		procs = n
	}
	runtime.GOMAXPROCS(procs)
	in := inputs{seed: workloadSeed(*seed), workers: procs}
	b := &bencher{w: w, in: in, t0: time.Now()}

	if *rec {
		return b.record(*goldenDir, stdout)
	}
	var tr *tracer
	if *traceFlag == 1 {
		tr = newTracer(b.t0, w.name, in.seed)
	}
	g, setupS, err := b.setup(*goldenDir, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var res result
	var passes []map[string]float64
	if *traceFlag == 0 {
		res, passes = b.untraced(g, setupS, *seconds)
	} else {
		res, passes, err = b.traced(g, tr, *seconds, *outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	fp := hostFingerprint(in.workers)
	fmt.Fprintf(stdout, "perfbench %s: seed %d (workload seed %d), %d passes\n", w.name, *seed, in.seed, len(passes))
	fmt.Fprintf(stdout, "host: %s, nproc %d, GOMAXPROCS %d, workers %d, %s, commit %s, source %s\n",
		fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.Workers, fp.GoVersion, fp.Commit, fp.Source)
	list := endToEnd
	if *traceFlag == 1 {
		list = perLayer
	}
	for _, m := range list {
		fmt.Fprintf(stdout, "  %-26s %14.6f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	// points_failed is the JSON line's "failed" out of "attempted".
	fmt.Fprintf(stdout, "  %-26s %14d count of %d points\n", "points_failed", res.Failed, res.Attempted)
	if err := writeRecord(filepath.Join(*outDir, "records"), record{Fingerprint: fp,
		Workload: w.name, Seed: *seed, Trace: *traceFlag, Seconds: *seconds, Result: res, Passes: passes}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type bencher struct {
	w  workload
	in inputs
	t0 time.Time
}

// setup builds and resets one machine per configuration of the workload and
// loads the goldens, setupReps times in setupBlocks blocks, and returns the
// median over the blocks of the mean set-up time. Spans go to tr when
// tracing.
func (b *bencher) setup(goldenDir string, tr *tracer) (goldens, float64, error) {
	var g goldens
	var err error
	p := machine.DefaultParams()
	times := make([]float64, setupBlocks)
	for blk := range times {
		runtime.GC()
		start := time.Now()
		for r := 0; r < setupPerBlock; r++ {
			root := tr.begin("setup", -1, -1)
			for _, cfg := range b.w.configs(b.in) {
				var m *machine.Machine
				tr.do("machine.new", root, -1, func() { m = machine.NewWithParams(cfg, p) })
				tr.do("machine.reset", root, -1, func() { m.Reset(p, cfg.YieldSeed) })
			}
			if g, err = loadGoldens(goldenDir, b.w.parts, b.in.seed); err != nil {
				return nil, 0, err
			}
			tr.end(root)
		}
		times[blk] = time.Since(start).Seconds() / setupPerBlock
	}
	return g, stats.Median(times), nil
}

// passOutcome is what one pass over the workload's points produced.
type passOutcome struct {
	outs              map[string]any
	flat              map[string][]string
	attempted, failed int
}

// pass runs every point of the workload once and checks each output
// against g (when g is not nil). A point that panics counts as failed.
func (b *bencher) pass(g goldens, tr *tracer) passOutcome {
	root := tr.begin("pass", -1, -1)
	po := passOutcome{outs: map[string]any{}, flat: map[string][]string{}}
	idx := 0
	for _, bt := range b.w.plan(b.in) {
		workers := 1
		if bt.fan {
			workers = b.in.workers
		}
		b.runPoints(&po, g, tr, root, idx, bt.points, workers)
		idx += len(bt.points)
	}
	tr.end(root)
	return po
}

// runPoints runs points over the given number of workers and checks their
// outputs; base is the index of the first point in the pass.
func (b *bencher) runPoints(po *passOutcome, g goldens, tr *tracer, root, base int, points []point, workers int) {
	type res struct {
		out any
		err any
	}
	rs := exp.Run(workers, len(points), func(i int) (r res) {
		p := points[i]
		tr.do(p.span, root, base+i, func() {
			defer func() {
				if e := recover(); e != nil {
					r.err = e
				}
			}()
			r.out = p.run()
		})
		return r
	})
	for i, r := range rs {
		p := points[i]
		po.attempted++
		if r.err != nil {
			po.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: panic: %v\n", b.w.name, p.name, r.err)
			continue
		}
		po.outs[p.name] = r.out
		po.flat[p.name] = flatten(r.out)
		if g == nil {
			continue
		}
		if d := mismatch(po.flat[p.name], g[p.name]); d != "" {
			po.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: output differs from golden: %s\n", b.w.name, p.name, d)
		}
	}
}

// untraced measures whole passes until seconds have passed and reports the
// end-to-end costs as medians over the passes.
func (b *bencher) untraced(g goldens, setupS, seconds float64) (result, []map[string]float64) {
	res := result{Metrics: map[string]metric{}}
	var passes []map[string]float64
	var last passOutcome
	dl := startDeadline()
	for len(passes) == 0 || dl.another(seconds) {
		runtime.GC()
		c0 := readCounters()
		last = b.pass(g, nil)
		c1 := readCounters()
		dl.lap()
		res.Attempted += last.attempted
		res.Failed += last.failed
		passes = append(passes, map[string]float64{
			"wall_s":   c1.wall.Sub(c0.wall).Seconds(),
			"cpu_s":    c1.cpuS - c0.cpuS,
			"alloc_mb": float64(c1.allocBytes-c0.allocBytes) / 1e6,
		})
	}
	for _, m := range endToEnd {
		var v float64
		switch m.name {
		case "setup_s":
			v = setupS
		case "paper_err_pct":
			v = paperErrPct(b.w.bands(last.outs))
		default:
			v = medianOf(passes, m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	res.Correct = res.Failed == 0
	return res, passes
}

// traced alternates untraced and traced passes, at least one of each, until
// seconds have passed. Traced passes record spans and a labelled CPU
// profile; per-layer metrics are per traced pass, set-up spans per set-up.
// Spans and profiles are written under outDir.
func (b *bencher) traced(g goldens, tr *tracer, seconds float64, outDir string) (result, []map[string]float64, error) {
	res := result{Metrics: map[string]metric{}}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, nil, err
	}
	var passes []map[string]float64
	var plainWall, tracedWall []float64
	self := map[string]float64{}
	var gcS, mallocs, cycles float64
	dl := startDeadline()
	for i := 0; len(tracedWall) == 0 || dl.another(seconds); i++ {
		traced := i%2 == 1
		runtime.GC()
		var prof bytes.Buffer
		ptr := (*tracer)(nil)
		if traced {
			ptr = tr
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return res, nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		c0 := readCounters()
		po := b.pass(g, ptr)
		c1 := readCounters()
		dl.lap()
		wall := c1.wall.Sub(c0.wall).Seconds()
		res.Attempted += po.attempted
		res.Failed += po.failed
		passes = append(passes, map[string]float64{"wall_s": wall, "traced": float64(i % 2)})
		if !traced {
			plainWall = append(plainWall, wall)
			continue
		}
		pprof.StopCPUProfile()
		tracedWall = append(tracedWall, wall)
		gcS += c1.gcCPUS - c0.gcCPUS
		mallocs += float64(c1.allocObjs - c0.allocObjs)
		cycles += float64(c1.gcCycles - c0.gcCycles)
		ss, err := selfSeconds(prof.Bytes())
		if err != nil {
			return res, nil, err
		}
		for k, v := range ss {
			self[k] += v
		}
		name := filepath.Join(outDir, fmt.Sprintf("cpu-%s-seed%d-pass%d.pprof", b.w.name, b.in.seed, i))
		if err := os.WriteFile(name, prof.Bytes(), 0o644); err != nil {
			return res, nil, err
		}
	}
	n := float64(len(tracedWall))
	vals := map[string]float64{}
	for k, v := range tr.sumSeconds() {
		switch k {
		case "machine.new", "machine.reset":
			vals[k+"_s"] = v / setupReps
		case "setup", "pass":
		default:
			vals[k+"_s"] = v / n
		}
	}
	for k, v := range self {
		if k == "runtime.sched" {
			vals["runtime.sched_s"] = v / n
		} else {
			vals[k+".self_s"] = v / n
		}
	}
	vals["runtime.gc_s"] = gcS / n
	vals["runtime.mallocs"] = mallocs / n
	vals["runtime.gc_cycles"] = cycles / n
	vals["runtime.peak_rss_mb"] = readCounters().peakRSSMB
	vals["trace.overhead_s"] = stats.Median(tracedWall) - stats.Median(plainWall)
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	res.Correct = res.Failed == 0
	spans, err := json.MarshalIndent(tr.spans, "", " ")
	if err != nil {
		return res, nil, err
	}
	name := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", b.w.name, b.in.seed))
	return res, passes, os.WriteFile(name, spans, 0o644)
}

// record runs one pass and writes its outputs as the goldens of the
// workload seed, then prints the paper-band rows.
func (b *bencher) record(goldenDir string, stdout *bytes.Buffer) int {
	if len(b.w.parts) != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s joins %v; record the goldens of each part\n", b.w.name, b.w.parts)
		return 2
	}
	po := b.pass(nil, nil)
	if po.failed > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: not recording goldens: points panicked")
		return 1
	}
	if err := saveGoldens(goldenDir, b.w.name, b.in.seed, po.flat); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rows := b.w.bands(po.outs)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].distance() > rows[j].distance() })
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-50s %12.5g  band %g-%g  out %.2f%%\n", r.name, r.value, r.lo, r.hi, 100*r.distance())
	}
	fmt.Fprintf(stdout, "recorded %d points of %s for workload seed %d; paper_err_pct %.4f\n",
		po.attempted, b.w.name, b.in.seed, paperErrPct(rows))
	return 0
}

// A deadline ends a run before a pass that would not finish within the
// run's seconds, so that a run takes at most its seconds after set-up.
type deadline struct {
	t0, last time.Time
	longest  float64 // seconds of the longest lap so far
}

func startDeadline() *deadline {
	now := time.Now()
	return &deadline{t0: now, last: now}
}

// lap marks the end of a pass; a lap runs from one mark to the next.
func (d *deadline) lap() {
	now := time.Now()
	d.longest = max(d.longest, now.Sub(d.last).Seconds())
	d.last = now
}

// another reports whether a pass as long as the longest so far still ends
// within seconds of the start.
func (d *deadline) another(seconds float64) bool {
	return time.Since(d.t0).Seconds()+d.longest <= seconds
}

func medianOf(passes []map[string]float64, key string) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = p[key]
	}
	return stats.Median(xs)
}
