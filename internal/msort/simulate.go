package msort

import (
	"math"

	"knlcap/internal/core"
	"knlcap/internal/exp"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memmode"
	"knlcap/internal/memo"
	"knlcap/internal/stats"
	"knlcap/internal/units"
)

// SimParams configure a simulated sort run (the "measured" curves of
// Figure 10).
type SimParams struct {
	// TotalLines is the input size in cache lines.
	TotalLines int
	// Threads is the requested thread count (rounded to a power of two).
	Threads int
	// Kind places the ping-pong buffers (the paper's DRAM-vs-MCDRAM study).
	Kind knl.MemKind
	// Schedule pins threads (the paper's Figure 10 uses compact filling).
	Schedule knl.Schedule
	// BitonicNsPerLine is the compute cost of one network application.
	BitonicNsPerLine units.Nanos
	// LevelOverheadNs models per-merge-task software overhead (recursion,
	// task dispatch, false sharing) paid by each active thread per level —
	// the source of the paper's overhead-dominated regime at small sizes.
	LevelOverheadNs units.Nanos
}

// DefaultSimParams returns the Figure 10 configuration.
func DefaultSimParams(totalLines, threads int, kind knl.MemKind) SimParams {
	return SimParams{
		TotalLines:       totalLines,
		Threads:          threads,
		Kind:             kind,
		Schedule:         knl.Compact,
		BitonicNsPerLine: 6,
		LevelOverheadNs:  350,
	}
}

// Simulate replays the parallel merge sort's memory traffic on the
// simulated machine and returns the completion time. Each rank runs as a
// step kernel (Machine.SpawnKernel) whose program emits the rank's op
// sequence one op at a time: the local merge levels over its chunk, then
// its part of the merge tree, synchronized through per-stage flag words.
// The machine comes from the process-wide pool, reset to the state
// machine.New builds.
func Simulate(cfg knl.Config, p SimParams) units.Nanos {
	m := exp.Machines.Get(cfg, machine.DefaultParams(), cfg.YieldSeed)
	t := simulate(m, p)
	exp.Machines.Put(m)
	return t
}

// simulate runs the sort on a fresh or freshly reset machine m. It is the
// seam that lets tests inspect the machine after the run.
func simulate(m *machine.Machine, p SimParams) units.Nanos {
	threads := effectiveThreads(p.TotalLines*16, p.Threads)
	places := knl.Pin(p.Schedule, m.NumTiles(), threads)

	kind := p.Kind
	if m.Cfg.Memory != knl.Flat && kind == knl.MCDRAM {
		kind = knl.DDR
	}
	ping := m.Alloc.MustAlloc(kind, 0, int64(p.TotalLines)*knl.LineSize)
	pong := m.Alloc.MustAlloc(kind, 0, int64(p.TotalLines)*knl.LineSize)
	// Per-thread, per-stage completion flags.
	maxStages := int(math.Log2(float64(threads))) + 2
	flagBuf := m.Alloc.MustAlloc(knl.DDR, 0, int64(threads*maxStages)*knl.LineSize)

	chunk := p.TotalLines / threads
	if chunk < 1 {
		chunk = 1
	}
	var finish float64
	ranks := make([]rankProg, len(places))
	for r, pl := range places {
		ranks[r] = rankProg{
			p: &p, flags: flagBuf, cur: ping, other: pong,
			rank: r, threads: threads, maxStages: maxStages, chunk: chunk,
			finish: &finish,
			// Phase 1: local sort. One pass per merge level over the
			// thread's chunk: read the current buffer, write the other.
			unit:   rkLevel,
			levels: int(math.Log2(float64(chunk))) + 1,
			lo:     r * chunk,
			n:      chunk,
		}
		m.SpawnKernel(pl, ranks[r].next)
	}
	if _, err := m.Run(); err != nil {
		panic(err)
	}
	return units.Nanos(finish)
}

// The units of a rank's program, in the order they run.
const (
	rkLevel  = iota // one local merge level: overhead, read, write, bitonic
	rkFlag          // publish the local sort's completion flag
	rkMerge         // one merge-tree stage: wait for the partner, then a pass and a flag
	rkRetire        // hand the chunk over to the stage's merger and retire
	rkDone
)

// rankProg lazily emits one rank's op sequence. It holds only the loop
// state of the sort, so a rank costs one small struct, not a slice of ops.
type rankProg struct {
	p          *SimParams
	flags      memmode.Buffer
	cur, other memmode.Buffer
	rank       int
	threads    int
	maxStages  int
	chunk      int
	finish     *float64

	unit   int // rkLevel..rkDone
	k      int // index of the unit's next op
	levels int // local merge levels left
	stage  int // merge-tree stage, from 1; active ranks halve per stage
	lo, n  int // the line range of the unit's pass
}

// next is the rank's machine.Program.
func (s *rankProg) next(now float64, _ uint64) (machine.KernelOp, bool) {
	for {
		if op, ok := s.op(); ok {
			s.k++
			return op, true
		}
		s.k = 0
		s.advance()
		if s.unit == rkDone {
			if now > *s.finish {
				*s.finish = now
			}
			return machine.KernelOp{}, false
		}
	}
}

// op returns op k of the current unit, or false once the unit is spent.
func (s *rankProg) op() (machine.KernelOp, bool) {
	switch s.unit {
	case rkLevel:
		return s.pass(s.k)
	case rkFlag:
		return s.flag(0), s.k == 0
	case rkMerge:
		switch {
		case s.k == 0:
			partner := s.rank + 1<<(s.stage-1)
			return machine.KernelOp{Kind: machine.KernelWaitWordGE, B: s.flags,
				Li: partner*s.maxStages + s.stage - 1, Val: 1}, true
		case s.k <= 4:
			return s.pass(s.k - 1)
		default:
			return s.flag(s.stage), s.k == 5
		}
	case rkRetire:
		return s.flag(s.stage - 1), s.k == 0
	}
	return machine.KernelOp{}, false
}

// pass returns op k of a merge pass over lines [lo, lo+n): the per-task
// overhead, a vector read of the current buffer, a write of the other, and
// the bitonic network's compute.
func (s *rankProg) pass(k int) (machine.KernelOp, bool) {
	switch k {
	case 0:
		return machine.KernelOp{Kind: machine.KernelCompute, Dur: s.p.LevelOverheadNs.Float()}, true
	case 1:
		return machine.KernelOp{Kind: machine.StreamRead, Src: s.cur, SrcFrom: s.lo, N: s.n, Vector: true}, true
	case 2:
		return machine.KernelOp{Kind: machine.StreamWrite, Dst: s.other, DstFrom: s.lo, N: s.n}, true
	case 3:
		return machine.KernelOp{Kind: machine.KernelCompute,
			Dur: s.p.BitonicNsPerLine.Scale(float64(s.n)).Float()}, true
	}
	return machine.KernelOp{}, false
}

// flag stores the rank's completion flag for a stage.
func (s *rankProg) flag(stage int) machine.KernelOp {
	return machine.KernelOp{Kind: machine.KernelStoreWord, B: s.flags,
		Li: s.rank*s.maxStages + stage, Val: 1}
}

// advance moves to the unit after the one just spent.
func (s *rankProg) advance() {
	switch s.unit {
	case rkLevel:
		s.cur, s.other = s.other, s.cur
		if s.levels--; s.levels == 0 {
			s.unit = rkFlag
		}
	case rkFlag:
		// Phase 2: merge tree.
		s.stage = 1
		s.mergeStage()
	case rkMerge:
		s.cur, s.other = s.other, s.cur
		s.stage++
		s.mergeStage()
	default:
		s.unit = rkDone
	}
}

// mergeStage picks the rank's role from the current stage on: merge its
// partner's chunk into its own, or hand its chunk over and retire.
func (s *rankProg) mergeStage() {
	for {
		width := 1 << (s.stage - 1)
		if width >= s.threads {
			s.unit = rkDone
			return
		}
		switch s.rank % (2 * width) {
		case 0:
			s.unit = rkMerge
			s.lo = s.rank * s.chunk
			s.n = min(2*width*s.chunk, s.p.TotalLines-s.lo)
			return
		case width:
			s.unit = rkRetire
			return
		}
		s.cur, s.other = s.other, s.cur
		s.stage++
	}
}

// FitOverhead fits the paper's overhead model: simulate 1 KB sorts across
// thread counts, subtract the bandwidth-variant memory model, and regress
// the residual linearly in the thread count (Section V-B.2).
func FitOverhead(cfg knl.Config, model *core.Model, kind knl.MemKind,
	threadCounts []int) core.OverheadModel {
	return FitOverheadParallel(cfg, model, kind, threadCounts, 1)
}

// FitOverheadParallel is FitOverhead with the thread-count points fanned
// over `parallel` workers (each Simulate owns its machine; the fit is
// identical at every setting).
func FitOverheadParallel(cfg knl.Config, model *core.Model, kind knl.MemKind,
	threadCounts []int, parallel int) core.OverheadModel {
	if len(threadCounts) == 0 {
		threadCounts = []int{1, 2, 4, 8, 16, 32, 64}
	}
	const lines = 16 // 1 KB of int32
	xs := make([]float64, len(threadCounts))
	for i, tc := range threadCounts {
		xs[i] = float64(tc)
	}
	ys := exp.Run(parallel, len(threadCounts), func(i int) float64 {
		tc := threadCounts[i]
		sp := DefaultSimParams(lines, tc, kind)
		measured := Simulate(cfg, sp)
		mp := core.DefaultSortParams(model, lines, effectiveThreads(lines*16, tc), kind)
		mem := model.SortCost(mp, true)
		resid := measured - mem
		if resid < 0 {
			resid = 0
		}
		return resid.Float()
	})
	fit, err := stats.LinReg(xs, ys)
	if err != nil {
		return core.OverheadModel{}
	}
	nf := fit.Nanos()
	return core.OverheadModel{Alpha: nf.Alpha, Beta: nf.Beta}
}

// FitOverheadMemo is FitOverheadParallel backed by a result cache: the fit
// is returned from the cache when the configuration, model, and sweep are
// unchanged, and stored after a cold run. A nil cache degrades to the
// uncached parallel fit.
func FitOverheadMemo(cfg knl.Config, model *core.Model, kind knl.MemKind,
	threadCounts []int, parallel int, c *memo.Cache) core.OverheadModel {
	// Simulate runs on machine.New's default protocol constants, so they
	// are part of the content address (the memokey analyzer checks this).
	key := machine.DefaultParams().FoldKey(
		model.FoldKey(cfg.FoldKey(memo.NewKey("msort-fit-overhead")))).
		Int(int(kind)).Ints(threadCounts).Key()
	if v, ok := memo.Lookup[core.OverheadModel](c, key); ok {
		return v
	}
	oh := FitOverheadParallel(cfg, model, kind, threadCounts, parallel)
	memo.Store(c, key, oh)
	return oh
}

// Figure10Point is one x-position of one Figure 10 panel.
type Figure10Point struct {
	Threads    int
	MeasuredNs units.Nanos
	MemLatNs   units.Nanos // memory model, latency variant
	MemBWNs    units.Nanos // memory model, bandwidth variant
	FullLatNs  units.Nanos // + overhead model
	FullBWNs   units.Nanos
	OverCutoff bool // overhead > 10% of the memory model
}

// Figure10 regenerates one panel: the simulated sort and the four model
// curves across thread counts for a given input size and memory kind.
func Figure10(cfg knl.Config, model *core.Model, oh core.OverheadModel,
	totalLines int, kind knl.MemKind, threadCounts []int) []Figure10Point {
	return Figure10Parallel(cfg, model, oh, totalLines, kind, threadCounts, 1)
}

// Figure10Parallel is Figure10 with the thread-count points fanned over
// `parallel` workers.
func Figure10Parallel(cfg knl.Config, model *core.Model, oh core.OverheadModel,
	totalLines int, kind knl.MemKind, threadCounts []int, parallel int) []Figure10Point {
	if len(threadCounts) == 0 {
		threadCounts = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	}
	return exp.Run(parallel, len(threadCounts), func(i int) Figure10Point {
		tc := threadCounts[i]
		eff := effectiveThreads(totalLines*16, tc)
		sp := DefaultSimParams(totalLines, tc, kind)
		mp := core.DefaultSortParams(model, totalLines, eff, kind)
		return Figure10Point{
			Threads:    tc,
			MeasuredNs: Simulate(cfg, sp),
			MemLatNs:   model.SortCost(mp, false),
			MemBWNs:    model.SortCost(mp, true),
			FullLatNs:  model.FullSortCost(mp, oh, false),
			FullBWNs:   model.FullSortCost(mp, oh, true),
			OverCutoff: model.EfficiencyCutoff(mp, oh),
		}
	})
}

// Figure10Memo is Figure10Parallel backed by a result cache. The overhead
// model is part of the key — the full-cost curves are a function of it.
func Figure10Memo(cfg knl.Config, model *core.Model, oh core.OverheadModel,
	totalLines int, kind knl.MemKind, threadCounts []int, parallel int,
	c *memo.Cache) []Figure10Point {
	key := machine.DefaultParams().FoldKey(
		model.FoldKey(cfg.FoldKey(memo.NewKey("msort-figure10")))).
		Float(oh.Alpha.Float()).Float(oh.Beta.Float()).
		Int(totalLines).Int(int(kind)).Ints(threadCounts).Key()
	if v, ok := memo.Lookup[[]Figure10Point](c, key); ok {
		return v
	}
	pts := Figure10Parallel(cfg, model, oh, totalLines, kind, threadCounts, parallel)
	memo.Store(c, key, pts)
	return pts
}
