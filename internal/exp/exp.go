// Package exp is the deterministic parallel experiment runner.
//
// Every evaluation artifact of the paper — the table columns, the per-core
// latency sweep, the thread-count and message-size scans — is a set of
// independent simulation points: each point takes a machine for an
// explicit configuration and seed from the process-wide pool (Machines;
// by the Machine.Reset contract it is indistinguishable from a fresh
// one), runs to completion, and reduces to a few numbers. Run fans those
// points out over a bounded worker pool and collects the results in
// submission order, so a sweep's output is a pure function of its inputs:
// bit-identical whether it ran on one worker or sixteen, in whatever order
// the host scheduler picked.
//
// The contract a point function must honor is isolation: it must not touch
// a sim.Env, machine.Machine, or any other mutable state shared with
// another point (the envshare analyzer in internal/analysis enforces the
// simulator half of this statically). Everything a point needs it builds
// itself from value-type inputs; per-point randomness derives from
// PointSeed(base, i).
package exp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Config tunes a Run beyond the worker count.
type Config struct {
	// Parallel is the worker-pool size; <= 0 means runtime.GOMAXPROCS(0).
	// 1 runs the points serially on the calling goroutine, in index order —
	// exactly the pre-pool behavior of the sweep loops.
	Parallel int
	// Progress, when non-nil, is called after every completed point with
	// the number of points finished so far and the total. Calls are
	// serialized but their order follows completion, not index, order.
	Progress func(done, total int)
	// Cancel, when non-nil, is polled before each point starts; once it
	// reports true, no further points begin (running points complete).
	Cancel func() bool
}

// Workers resolves the effective worker count for n points.
func (c Config) Workers(n int) int {
	w := c.Parallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes point(0..n-1) on a pool of `parallel` workers and returns
// the results in index order. parallel <= 0 uses runtime.GOMAXPROCS(0);
// parallel == 1 is the exact serial loop. A panic inside a point is
// re-raised on the caller, lowest index first.
func Run[T any](parallel, n int, point func(i int) T) []T {
	out, _ := RunCfg(Config{Parallel: parallel}, n, point)
	return out
}

// RunCfg is Run with progress and cancellation. The boolean result reports
// whether every point completed (false only when cfg.Cancel fired, in
// which case the results of unstarted points are zero values).
func RunCfg[T any](cfg Config, n int, point func(i int) T) ([]T, bool) {
	if n <= 0 {
		return nil, true
	}
	results := make([]T, n)
	workers := cfg.Workers(n)
	if workers == 1 {
		return results, runSerial(cfg, n, point, results)
	}

	var (
		next     atomic.Int64
		canceled atomic.Bool
		panics   = make([]*pointPanic, n)
		mu       sync.Mutex // serializes Progress calls
		done     int
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || canceled.Load() {
					return
				}
				if cfg.Cancel != nil && cfg.Cancel() {
					canceled.Store(true)
					return
				}
				panics[i] = runPoint(point, i, results)
				if cfg.Progress != nil {
					mu.Lock()
					done++
					cfg.Progress(done, n)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for _, pp := range panics {
		if pp != nil {
			panic(pp.value)
		}
	}
	return results, !canceled.Load()
}

// runSerial is the worker==1 path: a plain loop on the calling goroutine.
func runSerial[T any](cfg Config, n int, point func(i int) T, results []T) bool {
	for i := 0; i < n; i++ {
		if cfg.Cancel != nil && cfg.Cancel() {
			return false
		}
		results[i] = point(i)
		if cfg.Progress != nil {
			cfg.Progress(i+1, n)
		}
	}
	return true
}

// pointPanic carries a recovered panic value from a worker back to the
// calling goroutine.
type pointPanic struct {
	value interface{}
}

// runPoint executes one point, converting a panic into a value so one bad
// point cannot tear down a worker silently; the caller re-raises the
// lowest-index panic after the pool drains, which keeps the surfaced
// failure deterministic even when several points panic.
func runPoint[T any](point func(i int) T, i int, results []T) (pp *pointPanic) {
	defer func() {
		if r := recover(); r != nil {
			pp = &pointPanic{value: r}
		}
	}()
	results[i] = point(i)
	return nil
}

// PointSeed derives the seed for point i from a sweep-level base seed with
// a splitmix64 mix, so neighboring points get decorrelated streams while
// the mapping stays a pure function of (base, i).
func PointSeed(base uint64, i int) uint64 {
	z := base + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
