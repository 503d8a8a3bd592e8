// Command knl-advise is the flat-mode memory-placement advisor: given a
// workload's arrays (size, access pattern, thread count), it uses the
// capability model to decide which arrays earn MCDRAM placement under the
// 16 GB budget — the paper's "we need performance models in order to
// decide which data has to be allocated in which memory".
//
// Usage:
//
//	knl-advise                                    # built-in demo workload
//	knl-advise -array grid:8g:streaming:128 \
//	           -array index:4g:random:64 \
//	           -array sortbuf:12g:sort:256:30
//	knl-advise -model fitted.json -budget 8g
//
// Array spec: name:bytes:pattern:threads[:touchesPerByte] with pattern one
// of streaming | random | sort, and bytes accepting k/m/g suffixes.
//
// Exit codes: 0 ok, 1 the model file or the advisor failed, 2 usage error
// (a malformed -array, or a -budget or array size that is not a positive
// byte count that fits in 64 bits, is a usage error).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"knlcap/internal/advisor"
	"knlcap/internal/core"
)

type arrayFlags []string

func (a *arrayFlags) String() string { return strings.Join(*a, ",") }
func (a *arrayFlags) Set(v string) error {
	*a = append(*a, v)
	return nil
}

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
	fprintf(fs.Output(), "knl-advise: "+format+"\n", args...)
	fs.Usage()
	return 2
}

// run is the command body: it parses and validates args, writes the plan
// to stdout and errors to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("knl-advise", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var specs arrayFlags
	fs.Var(&specs, "array", "array spec name:bytes:pattern:threads[:touches]; repeatable")
	budget := fs.String("budget", "16g", "MCDRAM budget (k/m/g suffixes)")
	modelFile := fs.String("model", "", "capability model JSON (default: the paper's numbers)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		return usageError(fs, "unexpected argument %q", fs.Arg(0))
	}
	budgetBytes, err := parseBytes(*budget)
	if err != nil {
		return usageError(fs, "-budget: %v", err)
	}
	arrays := demoWorkload()
	if len(specs) > 0 {
		arrays = arrays[:0]
		for _, s := range specs {
			a, err := parseArray(s)
			if err != nil {
				return usageError(fs, "-array: %v", err)
			}
			arrays = append(arrays, a)
		}
	}

	model := core.Default()
	if *modelFile != "" {
		if model, err = core.LoadFile(*modelFile); err != nil {
			fprintf(stderr, "knl-advise: %v\n", err)
			return 1
		}
	}
	if len(specs) == 0 {
		fprintf(stdout, "(no -array given: using the built-in demo workload)\n")
	}
	plan, err := advisor.Advise(model, arrays, budgetBytes)
	if err != nil {
		fprintf(stderr, "knl-advise: %v\n", err)
		return 1
	}
	fprintf(stdout, "%v", plan)
	return 0
}

func demoWorkload() []advisor.Array {
	return []advisor.Array{
		{Name: "stencil-grid", Bytes: 8 << 30, Pattern: advisor.Streaming, Threads: 128, TouchesPerByte: 50},
		{Name: "graph-index", Bytes: 6 << 30, Pattern: advisor.RandomAccess, Threads: 64, TouchesPerByte: 10},
		{Name: "sort-buffers", Bytes: 10 << 30, Pattern: advisor.MergeSortLike, Threads: 256, TouchesPerByte: 1},
		{Name: "input-staging", Bytes: 12 << 30, Pattern: advisor.Streaming, Threads: 16, TouchesPerByte: 1},
	}
}

func parseArray(s string) (advisor.Array, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 4 || len(parts) > 5 {
		return advisor.Array{}, fmt.Errorf("bad array spec %q", s)
	}
	bytes, err := parseBytes(parts[1])
	if err != nil {
		return advisor.Array{}, err
	}
	var pat advisor.Pattern
	switch parts[2] {
	case "streaming":
		pat = advisor.Streaming
	case "random":
		pat = advisor.RandomAccess
	case "sort":
		pat = advisor.MergeSortLike
	default:
		return advisor.Array{}, fmt.Errorf("unknown pattern %q", parts[2])
	}
	threads, err := strconv.Atoi(parts[3])
	if err != nil || threads < 1 {
		return advisor.Array{}, fmt.Errorf("bad thread count in %q", s)
	}
	touches := 1.0
	if len(parts) == 5 {
		touches, err = strconv.ParseFloat(parts[4], 64)
		if err != nil || !(touches >= 0) || math.IsInf(touches, 1) {
			return advisor.Array{}, fmt.Errorf("bad touches in %q", s)
		}
	}
	return advisor.Array{Name: parts[0], Bytes: bytes, Pattern: pat,
		Threads: threads, TouchesPerByte: touches}, nil
}

// parseBytes parses a positive byte count with an optional k/m/g suffix.
// Zero, negative and overflowing counts are errors.
func parseBytes(s string) (int64, error) {
	mult := int64(1)
	low := strings.ToLower(strings.TrimSpace(s))
	switch {
	case strings.HasSuffix(low, "g"):
		mult, low = 1<<30, strings.TrimSuffix(low, "g")
	case strings.HasSuffix(low, "m"):
		mult, low = 1<<20, strings.TrimSuffix(low, "m")
	case strings.HasSuffix(low, "k"):
		mult, low = 1<<10, strings.TrimSuffix(low, "k")
	}
	v, err := strconv.ParseInt(low, 10, 64)
	switch {
	case errors.Is(err, strconv.ErrRange) || v > math.MaxInt64/mult:
		return 0, fmt.Errorf("byte size %q overflows 64 bits", s)
	case err != nil:
		return 0, fmt.Errorf("bad byte size %q", s)
	case v <= 0:
		return 0, fmt.Errorf("byte size %q is not positive", s)
	}
	return v * mult, nil
}
