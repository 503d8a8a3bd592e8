package bench

import (
	"fmt"
	"math"
	"testing"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
)

// benchGolden pins representative benchmark results as float64 bits, in
// the order TestBenchStepEquivalence measures them. The values were
// recorded from the since-deleted goroutine process engine while an A/B
// test still asserted the step engine matched it bit for bit; they hold
// the step kernels to that output.
var benchGolden = []struct {
	name string
	bits uint64
}{
	{"SNC4-flat mem-lat DRAM lo", 0x40616b5be2326e8e},       // 139.3549662575719
	{"SNC4-flat mem-lat DRAM hi", 0x406297bd147480bb},       // 148.74183104280914
	{"SNC4-flat mem-lat MCDRAM lo", 0x40642addbfb1889c},     // 161.33956894564187
	{"SNC4-flat mem-lat cache lo", 0x0000000000000000},      // 0
	{"SNC4-flat mem-lat cache hi", 0x0000000000000000},      // 0
	{"SNC4-flat triad bw", 0x404f3abb48df594d},              // 62.45884047418313
	{"SNC4-flat copy peak", 0x4044e57861627b19},             // 41.792736218534806
	{"SNC4-flat contention median 0", 0x405f601b30318000},   // 125.50165943941101
	{"SNC4-flat contention median 1", 0x406e4b5895f38000},   // 242.35456368979067
	{"SNC4-flat contention median 2", 0x407916d14fd6c000},   // 401.4261015309021
	{"SNC4-flat congestion single", 0x40671dc79142eec8},     // 184.93061125824738
	{"SNC4-flat congestion many", 0x4067212e88b7360c},       // 185.03693042548582
	{"SNC4-flat congestion ring util", 0x3f95a6e2861d8c9e},  // 0.02114442771506885
	{"QUAD-cache mem-lat DRAM lo", 0x0000000000000000},      // 0
	{"QUAD-cache mem-lat DRAM hi", 0x0000000000000000},      // 0
	{"QUAD-cache mem-lat MCDRAM lo", 0x0000000000000000},    // 0
	{"QUAD-cache mem-lat cache lo", 0x40641a8d10db5c4e},     // 160.82971995204792
	{"QUAD-cache mem-lat cache hi", 0x406458346b4e2228},     // 162.75639882336077
	{"QUAD-cache triad bw", 0x404eb938984fb016},             // 61.44703964129455
	{"QUAD-cache copy peak", 0x4045ea0378d087cb},            // 43.828230954953675
	{"QUAD-cache contention median 0", 0x405f63433ec48000},  // 125.55097932042554
	{"QUAD-cache contention median 1", 0x406e48a627868000},  // 242.27028251904994
	{"QUAD-cache contention median 2", 0x407924fa1a3fe000},  // 402.31106018973514
	{"QUAD-cache congestion single", 0x40672ef0d38fb89c},    // 185.46689775534185
	{"QUAD-cache congestion many", 0x40673a70ee2ad9db},      // 185.82628544205986
	{"QUAD-cache congestion ring util", 0x3f9299177ed97eac}, // 0.018162123791965953
	{"SNC4-flat numa local", 0x40441d776fd4a7cf},            // 40.23020742305345
	{"SNC4-flat numa node0", 0x403ee51177728e71},            // 30.894797769039034
	{"SNC4-flat numa round-robin", 0x404852852a140b96},      // 48.64468885401509
	{"cache-lat L1", 0x400e666666666708},                    // 3.8000000000000718
	{"cache-lat tileM", 0x4041000000000000},                 // 34
	{"cache-lat remoteM lo", 0x405d3c666666658f},            // 116.94374999999694
	{"cache-lat remoteM hi", 0x405db1ffffffff32},            // 118.78124999999707
	{"gate0 bw read", 0x4003653a9a653cba},                   // 2.4244281828065057
	{"gate0 bw copy tile M", 0x401c71c71c71c71c},            // 7.111111111111111
	{"gate0 bw copy tile E", 0x40206906906906ab},            // 8.205128205128252
	{"gate0 bw copy remote", 0x401ecb9691cb4b90},            // 7.698816564591553
	{"gate0 multiline 0", 0x405b6a71f4cfea44},               // 109.66320534042558
	{"gate0 multiline 1", 0x405b5efc25e9b2ac},               // 109.48413989851059
	{"gate0 multiline 2", 0x406c91d3b39f011a},               // 228.5570924859574
	{"gate2 bw read", 0x400363ac622898b1},                   // 2.4236686390532545
	{"gate2 bw copy tile M", 0x401c71c71c71c71c},            // 7.111111111111111
	{"gate2 bw copy tile E", 0x40206906906906ab},            // 8.205128205128252
	{"gate2 bw copy remote", 0x401ecc07b301ecc0},            // 7.6992481203007515
	{"gate2 multiline 0", 0x405b400000000000},               // 109
	{"gate2 multiline 1", 0x405b400000000000},               // 109
	{"gate2 multiline 2", 0x406c800000000000},               // 228
}

// TestBenchStepEquivalence runs representative benchmarks — chase-based
// latency tables, windowed bandwidth points, a stream-peak run, the store
// and signal-watch kernels, the copy and multi-line iteration loops with
// the convergence gate off and on — and compares every value against
// benchGolden bit for bit. The machine-level half (state digests of the
// kernels) is TestKernelStepGoroutineEquivalence.
func TestBenchStepEquivalence(t *testing.T) {
	var got []float64
	var names []string
	rec := func(name string, v float64) {
		names = append(names, name)
		got = append(got, v)
	}
	for _, cfg := range []knl.Config{
		knl.DefaultConfig(),
		knl.DefaultConfig().WithModes(knl.Quadrant, knl.CacheMode),
	} {
		o := quick()
		lat := MeasureMemLatencies(cfg, o)
		rec(cfg.Name()+" mem-lat DRAM lo", lat.DRAM.Lo)
		rec(cfg.Name()+" mem-lat DRAM hi", lat.DRAM.Hi)
		rec(cfg.Name()+" mem-lat MCDRAM lo", lat.MCDRAM.Lo)
		rec(cfg.Name()+" mem-lat cache lo", lat.Cache.Lo)
		rec(cfg.Name()+" mem-lat cache hi", lat.Cache.Hi)
		bw := MeasureMemBandwidth(cfg, o, KernelTriad, knl.MCDRAM, true, 4, knl.Scatter)
		rec(cfg.Name()+" triad bw", bw.GBs)
		rec(cfg.Name()+" copy peak", MeasureStreamPeak(cfg, o, KernelCopy, knl.MCDRAM, 4, knl.Scatter))
		// The store-walk and signal-watch junctures: 1:N contention (RFO
		// invalidate fan-out) and ping-pong congestion (flag stores against
		// KernelWaitWordGE).
		ct := MeasureContention(cfg, o, []int{1, 4, 8})
		for i, v := range ct.Medians {
			rec(fmt.Sprintf("%s contention median %d", cfg.Name(), i), v)
		}
		cg := MeasureCongestion(cfg, o, 4)
		rec(cfg.Name()+" congestion single", cg.SinglePair)
		rec(cfg.Name()+" congestion many", cg.ManyPairs)
		rec(cfg.Name()+" congestion ring util", cg.MaxRingUtilization)
	}

	// The NUMA ablation's windowed spawn loop, in an SNC mode.
	cfg := knl.DefaultConfig().WithModes(knl.SNC4, knl.Flat)
	for _, np := range MeasureNUMAAblation(cfg, quick(), 8) {
		rec(cfg.Name()+" numa "+np.Policy.String(), np.GBs)
	}

	// The gated chase must reproduce the ungated values.
	o := quick()
	o.NoJitter = true
	o.ChaseLen = 64
	o.ConvergeAfter = 2
	cl := MeasureCacheLatencies(knl.DefaultConfig(), o, 2)
	rec("cache-lat L1", cl.LocalL1)
	rec("cache-lat tileM", cl.TileM)
	rec("cache-lat remoteM lo", cl.RemoteM.Lo)
	rec("cache-lat remoteM hi", cl.RemoteM.Hi)

	// The iteration loops (runConverged), jittered without the gate and
	// jitter-free with it.
	for _, gate := range []int{0, 2} {
		o := quick()
		if gate > 0 {
			o.NoJitter = true
			o.ConvergeAfter = gate
		}
		tag := fmt.Sprintf("gate%d ", gate)
		cb := MeasureCacheBandwidths(knl.DefaultConfig(), o, []int{1, 16, 64})
		rec(tag+"bw read", cb.Read)
		rec(tag+"bw copy tile M", cb.CopyTileM)
		rec(tag+"bw copy tile E", cb.CopyTileE)
		rec(tag+"bw copy remote", cb.CopyRemote)
		ml := MeasureMultiLine(knl.DefaultConfig(), o, cache.Modified, []int{1, 4, 16})
		for i, v := range ml.Medians {
			rec(fmt.Sprintf("%smultiline %d", tag, i), v)
		}
	}

	if len(got) != len(benchGolden) {
		t.Fatalf("%d values, want %d", len(got), len(benchGolden))
	}
	for i, want := range benchGolden {
		if names[i] != want.name {
			t.Fatalf("value %d is %q, want %q", i, names[i], want.name)
		}
		if bits := math.Float64bits(got[i]); bits != want.bits {
			t.Errorf("%s: %v (%#016x), want %v (%#016x)", want.name,
				got[i], bits, math.Float64frombits(want.bits), want.bits)
		}
	}
}
