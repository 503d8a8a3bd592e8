// Command knl-trace runs a chosen micro-workload on the simulated KNL with
// the operation tracer attached and prints per-source latency
// distributions, the busiest hardware structures and (optionally) a CSV of
// every operation — the observability companion of the capability model.
//
// Usage:
//
//	knl-trace -workload contention -threads 16
//	knl-trace -workload pingpong
//	knl-trace -workload mixed -csv trace.csv
//
// Exit codes: 0 ok, 1 the simulation or the CSV write failed, 2 usage
// error (an unknown -workload or -cluster, or a -threads outside 1-256, is
// a usage error).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/report"
	"knlcap/internal/stats"
	"knlcap/internal/trace"
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
	fprintf(fs.Output(), "knl-trace: "+format+"\n", args...)
	fs.Usage()
	return 2
}

// workloads maps each -workload name to the function that spawns it.
var workloads = map[string]func(m *machine.Machine, threads int){
	"contention": contention,
	"pingpong":   func(m *machine.Machine, _ int) { pingpong(m) },
	"mixed":      mixed,
}

// run is the command body: it parses and validates args before building a
// machine or spawning a process, writes the report to stdout and errors to
// stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("knl-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "mixed", "workload: mixed | contention | pingpong")
	threads := fs.Int("threads", 16, fmt.Sprintf("thread count (contention/mixed; 1-%d)", knl.NumHWThreads))
	csvPath := fs.String("csv", "", "write the raw operation trace to this CSV file")
	clusterMode := fs.String("cluster", "SNC4", "cluster mode")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		return usageError(fs, "unexpected argument %q", fs.Arg(0))
	}
	spawn, ok := workloads[*workload]
	if !ok {
		return usageError(fs, "unknown -workload %q (want mixed, contention or pingpong)", *workload)
	}
	if *threads < 1 || *threads > knl.NumHWThreads {
		return usageError(fs, "-threads %d outside 1-%d (the hardware threads of the die)", *threads, knl.NumHWThreads)
	}
	cm, err := knl.ParseClusterMode(*clusterMode)
	if err != nil {
		return usageError(fs, "%v", err)
	}

	cfg := knl.DefaultConfig().WithModes(cm, knl.Flat)
	m := machine.New(cfg)
	col := trace.NewCollector(0)
	m.SetTracer(col)
	spawn(m, *threads)
	if _, err := m.Run(); err != nil {
		fprintf(stderr, "knl-trace: %v\n", err)
		return 1
	}

	fprintf(stdout, "workload %q on %s: %d traced operations over %.1f us\n\n",
		*workload, cfg.Name(), col.Len(), m.Env.Now()/1e3)
	t := &report.Table{
		Title:   "Latency distribution by data source [ns]",
		Headers: []string{"Source", "Count", "p25", "median", "p75", "max"},
	}
	for _, g := range col.Summaries(trace.BySource) {
		t.AddRow(g.Key, g.Count, g.Summary.Q1, g.Summary.Med, g.Summary.Q3, g.Summary.Max)
	}
	t.Write(stdout)

	fprintf(stdout, "\nbusiest structures:\n")
	for i, rs := range m.StatsReport() {
		if i >= 6 {
			break
		}
		fprintf(stdout, "  %-12s %6d acquires, max queue %2d, utilization %4.1f%%\n",
			rs.Name, rs.Acquires, rs.MaxQueue, 100*rs.Utilization)
	}
	fprintf(stdout, "mesh ring peak utilization: %.2f%%\n", 100*m.MeshUtilization())

	if *csvPath != "" {
		if err := writeCSV(*csvPath, col); err != nil {
			fprintf(stderr, "knl-trace: %v\n", err)
			return 1
		}
		fprintf(stdout, "raw trace written to %s\n", *csvPath)
	}
	return 0
}

// writeCSV writes the collected operations to path.
func writeCSV(path string, col *trace.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = col.WriteCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// contention reproduces the 1:N Table I benchmark under the tracer.
func contention(m *machine.Machine, n int) {
	shared := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	m.Prime(shared, 0, cache.Modified)
	for i := 0; i < n; i++ {
		core := (2 + 2*i) % knl.NumCores
		local := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
		m.Spawn(place(core), func(th *machine.Thread) {
			for it := 0; it < 20; it++ {
				th.Load(shared, 0)
				th.Store(local, 0)
			}
		})
	}
}

// pingpong bounces one flag line between two far tiles.
func pingpong(m *machine.Machine) {
	flagBuf := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	m.Spawn(place(0), func(th *machine.Thread) {
		for r := 1; r <= 40; r += 2 {
			th.StoreWord(flagBuf, 0, uint64(r))
			th.WaitWordGE(flagBuf, 0, uint64(r+1))
		}
	})
	m.Spawn(place(knl.NumCores-2), func(th *machine.Thread) {
		for r := 1; r <= 40; r += 2 {
			th.WaitWordGE(flagBuf, 0, uint64(r))
			th.StoreWord(flagBuf, 0, uint64(r+1))
		}
	})
}

// mixed combines local, remote, contended and memory accesses.
func mixed(m *machine.Machine, n int) {
	hot := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	m.Prime(hot, 0, cache.Modified)
	remote := m.Alloc.MustAlloc(knl.DDR, 0, 8*knl.LineSize)
	m.Prime(remote, knl.NumCores/2, cache.Exclusive)
	rng := stats.NewRNG(1)
	for i := 0; i < n; i++ {
		core := (2 + 2*i) % knl.NumCores
		local := m.Alloc.MustAlloc(knl.DDR, 0, 4*knl.LineSize)
		cold := m.Alloc.MustAlloc(knl.MCDRAM, 0, 16*knl.LineSize)
		seed := rng.Uint64()
		m.Spawn(place(core), func(th *machine.Thread) {
			r := stats.NewRNG(seed)
			for it := 0; it < 20; it++ {
				th.Load(hot, 0)
				th.Load(local, r.Intn(4))
				th.Load(remote, r.Intn(8))
				th.Load(cold, r.Intn(16))
				th.Store(local, r.Intn(4))
			}
		})
	}
}

func place(core int) knl.Place {
	return knl.Place{Tile: core / knl.CoresPerTile, Core: core}
}
