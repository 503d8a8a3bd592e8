// Command knl-coll regenerates Figures 6, 7 and 8: the model-tuned
// barrier, broadcast and reduce versus the OpenMP-style and MPI-style
// baselines on the simulated KNL, with the min-max model envelope, plus the
// headline speedup factors.
//
// Usage:
//
//	knl-coll -fig 6                # barrier (Figure 6)
//	knl-coll -fig 7 -sched scatter # broadcast, scatter pinning
//	knl-coll -speedups             # max speedups across all three ops
//	knl-coll -fig 6 -cpuprofile cpu.out -memprofile mem.out
//
// Exit codes: 0 ok, 2 usage or setup error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"knlcap/internal/bench"
	"knlcap/internal/coll"
	"knlcap/internal/core"
	"knlcap/internal/knl"
	"knlcap/internal/memo"
	"knlcap/internal/prof"
	"knlcap/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fprintf writes output, deliberately dropping write errors: a run whose
// own output pipe fails has nothing useful left to report.
func fprintf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// usageError reports a bad flag value with the flag listing and returns
// the usage exit code.
func usageError(fs *flag.FlagSet, format string, args ...any) int {
	fprintf(fs.Output(), "knl-coll: "+format+"\n", args...)
	fs.Usage()
	return 2
}

func schedOf(s string) (knl.Schedule, bool) {
	switch s {
	case "scatter":
		return knl.Scatter, true
	case "fill-tiles", "filltiles":
		return knl.FillTiles, true
	case "compact":
		return knl.Compact, true
	default:
		return 0, false
	}
}

// run is the command body: it parses args, writes the figure to stdout
// and progress to stderr, and returns the exit code (0 ok, 2 usage or
// setup error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("knl-coll", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 6, "figure to regenerate: 6 (barrier), 7 (broadcast), 8 (reduce)")
	opName := fs.String("op", "", "measure an extension collective instead: allreduce | allgather | scan")
	schedName := fs.String("sched", "scatter", "pinning: scatter | fill-tiles | compact")
	speedups := fs.Bool("speedups", false, "print max speedups for all three collectives")
	quick := fs.Bool("quick", false, "reduced iterations")
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
	sched, ok := schedOf(*schedName)
	if !ok {
		return usageError(fs, "unknown schedule %q", *schedName)
	}
	var op coll.Op
	var figLabel string
	switch *opName {
	case "":
		switch *fig {
		case 6:
			op = coll.Barrier
		case 7:
			op = coll.Bcast
		case 8:
			op = coll.Reduce
		default:
			return usageError(fs, "-fig must be 6, 7 or 8")
		}
		figLabel = fmt.Sprintf("Figure %d", *fig)
	case "allreduce":
		op, figLabel = coll.Allreduce, "Extension"
	case "allgather":
		op, figLabel = coll.Allgather, "Extension"
	case "scan":
		op, figLabel = coll.Scan, "Extension"
	default:
		return usageError(fs, "unknown -op %s", *opName)
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fprintf(stderr, "knl-coll: %v\n", err)
		return 2
	}
	defer stopProf()

	cfg := knl.DefaultConfig() // SNC4-flat, as in the paper's figures
	model := core.Default()
	o := bench.DefaultOptions()
	if *quick {
		o = o.Quick()
	}
	o.WindowNs = 1e6
	o.Parallel = *parallel
	o.ConvergeAfter = *converge
	o.NoJitter = *nojitter
	if *useCache {
		mc, err := memo.New(*cacheDir)
		if err != nil {
			fprintf(stderr, "knl-coll: %v\n", err)
			return 2
		}
		o.Memo = mc
		defer func() { fprintf(stderr, "memo: %v\n", mc.Stats()) }()
	}

	if *speedups {
		printSpeedups(stdout, stderr, cfg, model, o, sched)
		return 0
	}
	pts := coll.MeasureFigure(cfg, model, o, op, sched, nil)
	t := &report.Table{
		Title: fmt.Sprintf("%s: %v latency [ns], SNC4-flat (MCDRAM), %s schedule",
			figLabel, op, *schedName),
		Headers: []string{"Threads",
			"tuned p25", "tuned med", "tuned p75",
			"model best", "model worst",
			"omp med", "mpi med", "vs omp", "vs mpi", "valid"},
	}
	var series [3]report.Series
	series[0].Name = "tuned"
	series[1].Name = "omp"
	series[2].Name = "mpi"
	for _, p := range pts {
		valid := p.Tuned.Validated && p.OMP.Validated && p.MPI.Validated
		t.AddRow(p.Threads,
			p.Tuned.Summary.Q1, p.Tuned.Summary.Med, p.Tuned.Summary.Q3,
			p.Tuned.ModelLo.Float(), p.Tuned.ModelHi.Float(),
			p.OMP.Summary.Med, p.MPI.Summary.Med,
			fmt.Sprintf("%.1fx", p.SpeedupOMP()),
			fmt.Sprintf("%.1fx", p.SpeedupMPI()),
			valid)
		x := float64(p.Threads)
		series[0].X = append(series[0].X, x)
		series[0].Y = append(series[0].Y, p.Tuned.Summary.Med)
		series[1].X = append(series[1].X, x)
		series[1].Y = append(series[1].Y, p.OMP.Summary.Med)
		series[2].X = append(series[2].X, x)
		series[2].Y = append(series[2].Y, p.MPI.Summary.Med)
	}
	if *csv {
		t.CSV(stdout)
		return 0
	}
	t.Write(stdout)
	fprintf(stdout, "\n")
	pl := &report.Plot{
		Title: fmt.Sprintf("%s (%v)", figLabel, op), XLabel: "threads",
		YLabel: "ns", LogY: true, Series: series[:],
	}
	pl.Write(stdout)
	return 0
}

func printSpeedups(stdout, stderr io.Writer, cfg knl.Config, model *core.Model, o bench.Options, sched knl.Schedule) {
	t := &report.Table{
		Title:   "Headline speedups of the model-tuned collectives (max across thread counts)",
		Headers: []string{"Collective", "vs OpenMP-style", "paper", "vs MPI-style", "paper"},
	}
	paper := map[coll.Op][2]string{
		coll.Barrier: {"7x", "24x"},
		coll.Bcast:   {"3x (cache mode)", "13x"},
		coll.Reduce:  {"5x", "14x"},
	}
	for _, op := range []coll.Op{coll.Barrier, coll.Bcast, coll.Reduce} {
		fprintf(stderr, "measuring %v...\n", op)
		pts := coll.MeasureFigure(cfg, model, o, op, sched, []int{8, 16, 32, 64})
		omp, mpi := coll.MaxSpeedups(pts)
		t.AddRow(op.String(), fmt.Sprintf("%.1fx", omp), paper[op][0],
			fmt.Sprintf("%.1fx", mpi), paper[op][1])
	}
	t.Write(stdout)
}
