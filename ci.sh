#!/usr/bin/env bash
# ci.sh — the full tier-1 gate. Run before every commit; CI runs the same.
#
#   ./ci.sh          full gate
#   ./ci.sh -quick   skip the race detector (slowest stage)
set -euo pipefail
cd "$(dirname "$0")"

quick=0
[ "${1:-}" = "-quick" ] && quick=1

step() { echo "== $*"; }

step "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet ./..."
go vet ./...

step "go build ./..."
go build ./...

step "knl-lint -tests ./... (archiving lint.json)"
# Archive the machine-readable findings even on a clean run ([]): CI
# consumers diff lint.json across runs. -tests extends coverage to
# in-package _test.go files; -timing leaves a per-analyzer wall-time
# line ("lint-timing: ...") on stderr so the lint-stage cost shows up
# in the perf trajectory next to the bench numbers.
if ! go run ./cmd/knl-lint -json -tests -timing ./... > lint.json; then
    cat lint.json >&2
    exit 1
fi

step "go test ./..."
go test ./...

if [ "$quick" = 0 ]; then
    # These packages run code on more than one goroutine: the parallel
    # sort, the simulator's blocking processes (iter.Pull coroutines, which
    # switch goroutines at every suspend and resume), and the experiment
    # worker pool; everything else is single-threaded.
    step "go test -race (internal/msort, internal/sim, internal/exp)"
    go test -race ./internal/msort ./internal/sim ./internal/exp

    # Tier 2: parallel-vs-serial digest equivalence under the race
    # detector, plus the engine benchmark smoke (asserts the zero-alloc
    # hot path still compiles and runs; numbers go to BENCH_sweep.json
    # via scripts/bench_baseline.sh).
    step "tier-2: TestParallelEquivalence -race"
    go test -run TestParallelEquivalence -race ./internal/exp/...
    step "tier-2: bench smoke (EngineEvent, 1 iteration)"
    go test -bench=EngineEvent -benchtime=1x -run '^$' ./internal/sim
    step "tier-2: bench smoke (machine hot path, 1 iteration)"
    go test -bench='LoadLineHotPath|PrimeFlush' -benchtime=1x -run '^$' ./internal/machine

    # Tier 2: the zero-allocation guarantee the hotalloc analyzer enforces
    # statically, re-proved dynamically: the steady-state event, step- and
    # coroutine-handoff, line, stream-flush and tag-array probe paths must
    # report 0 allocs/op under -benchmem.
    step "tier-2: zero-alloc gate (-benchmem, allocs/op must be 0)"
    go test -bench='BenchmarkEngineEventThroughput|BenchmarkStepHandoff|BenchmarkEngineCoroutineHandoff' -benchtime=5000x -benchmem -run '^$' ./internal/sim |
        tee /dev/stderr |
        awk '/allocs\/op/ && $(NF-1) != 0 { print "ci.sh: " $1 " allocates on the hot path (" $(NF-1) " allocs/op)" > "/dev/stderr"; bad = 1 } END { exit bad }'
    go test -bench='BenchmarkLoadLineHotPath|BenchmarkStoreLineHotPath|BenchmarkStreamFlush' -benchtime=5000x -benchmem -run '^$' ./internal/machine |
        tee /dev/stderr |
        awk '/allocs\/op/ && $(NF-1) != 0 { print "ci.sh: " $1 " allocates on the hot path (" $(NF-1) " allocs/op)" > "/dev/stderr"; bad = 1 } END { exit bad }'
    go test -bench='BenchmarkSetAssocProbe' -benchtime=5000x -benchmem -run '^$' ./internal/cache |
        tee /dev/stderr |
        awk '/allocs\/op/ && $(NF-1) != 0 { print "ci.sh: " $1 " allocates on the hot path (" $(NF-1) " allocs/op)" > "/dev/stderr"; bad = 1 } END { exit bad }'

    # Tier 2: the Table I golden. The quick jitter-free table runs the
    # contention sweep (RFO invalidate fan-out), the ping-pong pairs (the
    # signal-watch juncture) and the copy/multi-line iteration loops; its
    # CSV must match testdata/table1_quick_nojitter.csv byte for byte. The
    # golden was captured from the goroutine process engine before its
    # deletion, when an A/B stage proved the step engine matched it.
    step "tier-2: Table I golden (knl-bench -table 1 -quick -nojitter -csv vs testdata/table1_quick_nojitter.csv)"
    t1dir=$(mktemp -d)
    go build -o "$t1dir/knl-bench" ./cmd/knl-bench
    "$t1dir/knl-bench" -table 1 -quick -nojitter -csv > "$t1dir/table1.csv"
    if ! cmp -s "$t1dir/table1.csv" testdata/table1_quick_nojitter.csv; then
        echo "ci.sh: knl-bench -table 1 -quick -nojitter -csv diverged from testdata/table1_quick_nojitter.csv" >&2
        diff "$t1dir/table1.csv" testdata/table1_quick_nojitter.csv >&2 || true
        exit 1
    fi
    rm -rf "$t1dir"

    # Tier 2: the cheap Fig 10 artifact. The MCDRAM 4096-line panel runs
    # the step-kernel sort end to end in well under a second; its stdout
    # must match the committed results file byte for byte.
    step "tier-2: Fig 10 artifact (knl-sort -kind mcdram -lines 4096 vs results/fig10_mcdram.txt)"
    sortdir=$(mktemp -d)
    go build -o "$sortdir/knl-sort" ./cmd/knl-sort
    "$sortdir/knl-sort" -kind mcdram -lines 4096 > "$sortdir/fig10_mcdram.txt"
    if ! cmp -s "$sortdir/fig10_mcdram.txt" results/fig10_mcdram.txt; then
        echo "ci.sh: knl-sort -kind mcdram -lines 4096 diverged from results/fig10_mcdram.txt" >&2
        diff "$sortdir/fig10_mcdram.txt" results/fig10_mcdram.txt >&2 || true
        exit 1
    fi
    rm -rf "$sortdir"

    # Tier 2: the quick results/ artifacts. Table I, Figures 4-9 and the
    # collective speedups are regenerated with the commands in
    # results/README.md (a few seconds in all) and must match the committed
    # files byte for byte. They cover the tag arrays and the machine pool on
    # every cluster mode.
    step "tier-2: results/ artifacts (table1, fig4-fig9, speedups vs results/)"
    resdir=$(mktemp -d)
    for cmd in knl-bench knl-sweep knl-coll; do
        go build -o "$resdir/$cmd" ./cmd/$cmd
    done
    regen() { # regen FILE CMD ARGS...: regenerate results/FILE and compare
        local file=$1
        shift
        "$resdir/$1" "${@:2}" > "$resdir/$file" 2> /dev/null
        if ! cmp -s "$resdir/$file" "results/$file"; then
            echo "ci.sh: $* diverged from results/$file" >&2
            diff "$resdir/$file" "results/$file" >&2 || true
            exit 1
        fi
    }
    regen table1.txt knl-bench -table 1 -quick
    for fig in 4 5 9; do regen "fig$fig.txt" knl-sweep -fig "$fig" -quick; done
    for fig in 6 7 8; do regen "fig$fig.txt" knl-coll -fig "$fig" -quick; done
    regen speedups.txt knl-coll -speedups -quick
    rm -rf "$resdir"

    # Tier 2: memo determinism gate. Two identical -cache invocations into a
    # fresh cache directory must (a) print byte-identical results and (b) run
    # the second entirely from the cache: its memo summary must show zero
    # misses and zero stores, proving the simulator was never invoked.
    step "tier-2: memo determinism gate (two -cache runs, second must not simulate)"
    memodir=$(mktemp -d)
    trap 'rm -rf "$memodir"' EXIT
    go build -o "$memodir/knl-sweep" ./cmd/knl-sweep
    "$memodir/knl-sweep" -fig 4 -quick -nojitter -converge 3 \
        -cache -cache-dir "$memodir/cache" > "$memodir/run1.out" 2> "$memodir/run1.err"
    "$memodir/knl-sweep" -fig 4 -quick -nojitter -converge 3 \
        -cache -cache-dir "$memodir/cache" > "$memodir/run2.out" 2> "$memodir/run2.err"
    if ! cmp -s "$memodir/run1.out" "$memodir/run2.out"; then
        echo "ci.sh: cached rerun output differs from the cold run" >&2
        diff "$memodir/run1.out" "$memodir/run2.out" >&2 || true
        exit 1
    fi
    grep '^memo:' "$memodir/run2.err" >&2
    if ! grep -q '^memo: .*misses=0 stores=0' "$memodir/run2.err"; then
        echo "ci.sh: second -cache run invoked the simulator (expected misses=0 stores=0)" >&2
        exit 1
    fi
fi

echo "ci.sh: all gates passed"
