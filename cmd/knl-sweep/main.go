// Command knl-sweep regenerates the sweep figures: Figure 4 (per-core
// cache-to-cache latency from core 0, SNC4-flat), Figure 5 (copy bandwidth
// versus message size by placement and state, SNC4-cache) and Figure 9
// (triad bandwidth versus thread count, SNC4-flat, both schedules).
//
// Usage:
//
//	knl-sweep -fig 4
//	knl-sweep -fig 5 -quick
//	knl-sweep -fig 9 -sched compact
//
// Exit codes: 0 ok, 2 usage or setup error (an unknown -fig or -sched is a
// usage error).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"knlcap/internal/bench"
	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/memo"
	"knlcap/internal/prof"
	"knlcap/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fprintln writes output, deliberately dropping write errors: a run whose
// own output pipe fails has nothing useful left to report.
func fprintln(w io.Writer, args ...any) {
	_, _ = fmt.Fprintln(w, args...)
}

// usageError reports a bad flag value with the flag listing and returns
// the usage exit code.
func usageError(fs *flag.FlagSet, format string, args ...any) int {
	_, _ = fmt.Fprintf(fs.Output(), "knl-sweep: "+format+"\n", args...)
	fs.Usage()
	return 2
}

// run is the command body: it parses args, writes the figure to stdout and
// progress to stderr, and returns the exit code (0 ok, 2 usage or setup
// error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("knl-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 4, "figure to regenerate: 4, 5 or 9")
	sched := fs.String("sched", "fill-tiles", "figure 9 schedule: fill-tiles | compact")
	quick := fs.Bool("quick", false, "reduced effort")
	csv := fs.Bool("csv", false, "emit CSV")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"worker-pool size for independent measurement points (1 = serial; results are identical at every setting)")
	useCache := fs.Bool("cache", false, "memoize measurement results on disk (see -cache-dir)")
	cacheDir := fs.String("cache-dir", "results/.memocache", "directory of the result cache")
	converge := fs.Int("converge", 0,
		"stop deterministic measurement loops after N bit-identical passes and extrapolate (0 = exact; needs -nojitter to fire)")
	nojitter := fs.Bool("nojitter", false, "disable the simulated timing jitter")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *fig != 4 && *fig != 5 && *fig != 9 {
		return usageError(fs, "-fig must be 4, 5 or 9")
	}
	var sc knl.Schedule
	switch *sched {
	case "fill-tiles":
		sc = knl.FillTiles
	case "compact":
		sc = knl.Compact
	default:
		return usageError(fs, "unknown -sched %q (want fill-tiles or compact)", *sched)
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fprintln(stderr, "knl-sweep:", err)
		return 2
	}
	defer stopProf()

	o := bench.DefaultOptions()
	if *quick {
		o = o.Quick()
	}
	o.Parallel = *parallel
	o.ConvergeAfter = *converge
	o.NoJitter = *nojitter
	if *useCache {
		mc, err := memo.New(*cacheDir)
		if err != nil {
			fprintln(stderr, "knl-sweep:", err)
			return 2
		}
		o.Memo = mc
		defer func() { fprintln(stderr, "memo:", mc.Stats()) }()
	}

	var t *report.Table
	var plot *report.Plot
	switch *fig {
	case 4:
		t, plot = figure4(o)
	case 5:
		t, plot = figure5(o)
	default:
		t, plot = figure9(o, sc)
	}
	if *csv {
		t.CSV(stdout)
		return 0
	}
	t.Write(stdout)
	fprintln(stdout)
	plot.Write(stdout)
	return 0
}

func figure4(o bench.Options) (*report.Table, *report.Plot) {
	cfg := knl.DefaultConfig() // SNC4-flat
	o.Averages /= 2
	if o.Averages < 4 {
		o.Averages = 4
	}
	states := []cache.State{cache.Modified, cache.Exclusive, cache.Invalid}
	pts := bench.MeasurePerCoreLatencies(cfg, o, states)
	t := &report.Table{
		Title:   "Figure 4: latency of cache-line transfers between core 0 and every other core (SNC4-flat) [ns]",
		Headers: []string{"Core", "M", "E", "I"},
	}
	byCore := map[int]map[cache.State]float64{}
	for _, p := range pts {
		if byCore[p.Core] == nil {
			byCore[p.Core] = map[cache.State]float64{}
		}
		byCore[p.Core][p.State] = p.Latency
	}
	series := []report.Series{{Name: "M"}, {Name: "E"}, {Name: "I"}}
	for c := 1; c < knl.NumCores; c++ {
		row := byCore[c]
		t.AddRow(c, row[cache.Modified], row[cache.Exclusive], row[cache.Invalid])
		for i, st := range states {
			series[i].X = append(series[i].X, float64(c))
			series[i].Y = append(series[i].Y, row[st])
		}
	}
	return t, &report.Plot{Title: "Figure 4", XLabel: "core", YLabel: "ns", Series: series}
}

func figure5(o bench.Options) (*report.Table, *report.Plot) {
	cfg := knl.DefaultConfig().WithModes(knl.SNC4, knl.CacheMode)
	o.Iterations /= 2
	if o.Iterations < 4 {
		o.Iterations = 4
	}
	var sizes []int
	for b := 64; b <= 256<<10; b *= 4 {
		sizes = append(sizes, b)
	}
	pts := bench.MeasureCopyBySize(cfg, o, sizes)
	t := &report.Table{
		Title:   "Figure 5: bandwidth of cache-to-cache copies (SNC4-cache) [GB/s]",
		Headers: []string{"Placement", "State", "Bytes", "GB/s"},
	}
	seriesIdx := map[string]int{}
	var series []report.Series
	for _, p := range pts {
		t.AddRow(p.Placement.String(), p.State.String(), p.Bytes, p.GBs)
		key := fmt.Sprintf("%s/%s", p.Placement, p.State)
		i, ok := seriesIdx[key]
		if !ok {
			i = len(series)
			seriesIdx[key] = i
			series = append(series, report.Series{Name: key})
		}
		series[i].X = append(series[i].X, float64(p.Bytes))
		series[i].Y = append(series[i].Y, p.GBs)
	}
	return t, &report.Plot{Title: "Figure 5", XLabel: "bytes", YLabel: "GB/s", Series: series}
}

func figure9(o bench.Options, sched knl.Schedule) (*report.Table, *report.Plot) {
	cfg := knl.DefaultConfig() // SNC4-flat
	counts := []int{1, 4, 8, 16, 32, 64, 128, 256}
	if o.Iterations > 20 {
		o.Iterations = 20
	}
	pts := bench.TriadSweep(cfg, o, sched, counts)
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 9: triad bandwidth (SNC4-flat, %v schedule) [GB/s]", sched),
		Headers: []string{"Threads", "Cores", "Kind", "GB/s"},
	}
	series := map[knl.MemKind]*report.Series{
		knl.MCDRAM: {Name: "MCDRAM"},
		knl.DDR:    {Name: "DRAM"},
	}
	for _, p := range pts {
		t.AddRow(p.Threads, p.Cores, p.Kind.String(), p.GBs)
		s := series[p.Kind]
		s.X = append(s.X, float64(p.Threads))
		s.Y = append(s.Y, p.GBs)
	}
	return t, &report.Plot{
		Title: "Figure 9", XLabel: "threads", YLabel: "GB/s",
		Series: []report.Series{*series[knl.MCDRAM], *series[knl.DDR]},
	}
}
