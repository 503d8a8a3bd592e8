package machine

import (
	"testing"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
)

// BenchmarkLoadLineHotPath measures the simulator cost of the per-line
// protocol walk itself: one kernel striding over a 2 MB DDR buffer, so
// nearly every access misses L2 and takes the full directory-to-memory
// path through the paged line tables. It runs as a kernel, like every
// measurement loop, so no coroutine switch is counted.
// bench_baseline.sh records its ns/op as ns_per_line_access; allocs/op
// must stay 0 (amortized — building a page on first touch is one-time
// setup).
func BenchmarkLoadLineHotPath(b *testing.B) {
	benchLineKernel(b, KernelLoad)
}

// benchLineKernel runs b.N ops of kind over a 2 MB DDR buffer at stride 7
// (coprime to the buffer) on one kernel.
func benchLineKernel(b *testing.B, kind KernelOpKind) {
	m := noJitterF(knl.DefaultConfig())
	const lines = 32768 // 2 MB: far beyond one tile's L2 share
	buf := m.Alloc.MustAlloc(knl.DDR, 0, lines*knl.LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	i := 0
	m.SpawnKernel(place(0), func(float64, uint64) (KernelOp, bool) {
		if i == b.N {
			return KernelOp{}, false
		}
		li := (i * 7) % lines
		i++
		return KernelOp{Kind: kind, B: buf, Li: li}, true
	})
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreLineHotPath is the store-side twin: the RFO walk (tag
// probe, invalidate-others fan-out, memory write allocate) over the same
// 2 MB stride. ci.sh tier-2 gates it at 0 allocs/op alongside the load
// path, so neither ported walk regrows per-op garbage.
func BenchmarkStoreLineHotPath(b *testing.B) {
	benchLineKernel(b, KernelStore)
}

// BenchmarkPrimeFlush measures the zero-time setup path benchmarks lean
// on between iterations: priming a buffer into a core's caches and
// retiring it again with the epoch flush.
func BenchmarkPrimeFlush(b *testing.B) {
	m := noJitterF(knl.DefaultConfig())
	const lines = 256
	buf := m.Alloc.MustAlloc(knl.DDR, 0, lines*knl.LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Prime(buf, 0, cache.Exclusive)
		m.FlushBuffer(buf)
	}
}

// BenchmarkStreamFlush measures one multi-channel NT copy chunk of a stream
// kernel: MLP-deep reads from a DDR buffer larger than the L2 and NT writes
// to a second one, whose lines hash over several channels, so every chunk
// ends in a joined flush with one helper per channel. A warm-up pass over
// both buffers first builds their line-table pages, the recycled step
// frames and the kernel's flush join; the timed chunks then run in steady
// state, and ci.sh tier-2 gates them at 0 allocs/op.
func BenchmarkStreamFlush(b *testing.B) {
	m := noJitterF(knl.DefaultConfig())
	const lines = 32768 // 2 MB each: the source streams from memory
	src := m.Alloc.MustAlloc(knl.DDR, 0, lines*knl.LineSize)
	dst := m.Alloc.MustAlloc(knl.DDR, 0, lines*knl.LineSize)
	chunk := m.P.MLPMem
	warm := lines / chunk
	b.ReportAllocs()
	i := 0
	m.SpawnStreamTask(place(0), func(float64) (StreamOp, bool) {
		if i == warm {
			b.ResetTimer()
		}
		if i == warm+b.N {
			return StreamOp{}, false
		}
		from := i * chunk % lines
		i++
		return StreamOp{Kind: StreamCopy, Dst: dst, Src: src, DstFrom: from, SrcFrom: from, N: chunk, NT: true}, true
	})
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
}
