package exp

import "knlcap/internal/memo"

// RunMemo is Run with a content-addressed result cache in front: a hit
// returns the stored point slice without building a single machine; a miss
// runs the sweep and stores the results under key. The boolean mirrors
// RunCfg's completion flag (a canceled sweep is returned but never stored,
// so a partial result cannot poison the cache). A nil cache degrades to a
// plain RunCfg.
//
// The caller owns the key discipline: key must fold every input the points
// depend on (bench.Options.KeyFor is the standard builder). Worker count is
// deliberately not part of any key — sweeps are bit-identical across
// Parallel settings, which the equivalence tests assert.
func RunMemo[T any](cfg Config, c *memo.Cache, key memo.Key, n int, point func(i int) T) ([]T, bool) {
	if vals, ok := memo.Lookup[[]T](c, key); ok {
		return vals, true
	}
	vals, done := RunCfg(cfg, n, point)
	if done {
		memo.Store(c, key, vals)
	}
	return vals, done
}
