package machine

import (
	"math"
	"testing"

	"knlcap/internal/knl"
	"knlcap/internal/memmode"
	"knlcap/internal/stats"
)

// kernelWorkload drives the spawnable bench kernels — a pointer chase and a
// stream task with copy/triad ops and a window sync — and returns the
// digest triple plus the measurements the host callbacks observed (pass
// times, op times). The callbacks run at simulated instants, so they too
// are pinned bit for bit.
func kernelWorkload(t *testing.T, cfg knl.Config) (digest uint64, events uint64, end float64, obs []float64) {
	t.Helper()
	m := NewWithParams(cfg, DefaultParams())

	chaseBuf := m.Alloc.MustAlloc(knl.DDR, 0, 32*knl.LineSize)
	var a, b, c [2]memmode.Buffer
	for r := 0; r < 2; r++ {
		a[r] = m.Alloc.MustAlloc(knl.DDR, 0, 16*knl.LineSize)
		b[r] = m.Alloc.MustAlloc(knl.DDR, 0, 16*knl.LineSize)
		c[r] = m.Alloc.MustAlloc(knl.DDR, 0, 16*knl.LineSize)
	}

	rng := stats.NewRNG(7)
	perm := make([]int, chaseBuf.NumLines())
	pass := 0
	m.SpawnChase(place(1), ChaseOps{
		B:    chaseBuf,
		Perm: perm,
		Len:  2 * len(perm),
		NextPass: func() bool {
			if pass >= 3 {
				return false
			}
			pass++
			rng.PermInto(perm)
			return true
		},
		PassDone: func(elapsed float64) { obs = append(obs, elapsed) },
	})

	for r := 0; r < 2; r++ {
		r := r
		it := 0
		var start float64
		phase := 0
		m.SpawnStreamTask(place(8+8*r), func(now float64) (StreamOp, bool) {
			switch phase {
			case 0:
				phase = 1
				return StreamOp{Kind: StreamSync, At: 100}, true
			case 1:
				if it >= 3 {
					return StreamOp{}, false
				}
				phase = 2
				start = now
				switch it % 3 {
				case 0:
					return StreamOp{Kind: StreamCopy, Dst: a[r], Src: b[r], N: 16, NT: it == 0}, true
				case 1:
					return StreamOp{Kind: StreamTriad, Dst: a[r], Src: b[r], Src2: c[r], N: 16}, true
				default:
					return StreamOp{Kind: StreamWrite, Dst: b[r], N: 16, NT: true}, true
				}
			default:
				obs = append(obs, now-start)
				it++
				phase = 1
				return StreamOp{Kind: StreamSync, At: now}, true // already-past sync is a no-op
			}
		})
	}

	// Store-walk kernel: the RFO and streaming-store walks plus a read-back,
	// exercising storeStep's hit, invalidate-others and memory paths.
	storeBuf := m.Alloc.MustAlloc(knl.DDR, 0, 8*knl.LineSize)
	si := 0
	m.SpawnKernel(place(20), func(now float64, prev uint64) (KernelOp, bool) {
		if si > 0 {
			obs = append(obs, float64(prev)) // KernelLoad yields the payload
		}
		if si >= 6 {
			return KernelOp{}, false
		}
		li := si % storeBuf.NumLines()
		si++
		switch si % 3 {
		case 1:
			return KernelOp{Kind: KernelStoreWord, B: storeBuf, Li: li, Val: uint64(si)}, true
		case 2:
			return KernelOp{Kind: KernelStoreNT, B: storeBuf, Li: li}, true
		default:
			return KernelOp{Kind: KernelLoad, B: storeBuf, Li: li}, true
		}
	})

	// Flag ping-pong pair: KernelStoreWord/KernelAddWord against
	// KernelWaitWordGE, exercising the signal-watch juncture.
	flag := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	const rounds = 4
	pa := 0
	m.SpawnKernel(place(30), func(now float64, prev uint64) (KernelOp, bool) {
		if pa == 2*rounds {
			obs = append(obs, now)
			return KernelOp{}, false
		}
		r := pa / 2
		op := KernelOp{Kind: KernelStoreWord, B: flag, Val: uint64(2*r + 1)}
		if pa%2 == 1 {
			op = KernelOp{Kind: KernelWaitWordGE, B: flag, Val: uint64(2*r + 2)}
		}
		pa++
		return op, true
	})
	pb := 0
	m.SpawnKernel(place(40), func(now float64, prev uint64) (KernelOp, bool) {
		if pb > 0 {
			obs = append(obs, float64(prev)) // observed flag / added value
		}
		if pb == 2*rounds {
			return KernelOp{}, false
		}
		r := pb / 2
		op := KernelOp{Kind: KernelWaitWordGE, B: flag, Val: uint64(2*r + 1)}
		if pb%2 == 1 {
			op = KernelOp{Kind: KernelAddWord, B: flag, Val: 1}
		}
		pb++
		return op, true
	})

	if _, err := m.Run(); err != nil {
		t.Fatalf("kernel workload (%s): %v", cfg.Name(), err)
	}
	return m.StateDigest(), m.Env.Seq(), m.Env.Now(), obs
}

// kernelGolden pins kernelWorkload per configuration: state digest, event
// count, end time, and every host-callback observation, as float64 bits.
// The values were recorded from the goroutine process engine before its
// deletion, when the A/B test asserted the step engine matched it bit for
// bit; they hold the step kernels to that engine's output.
var kernelGolden = map[string]struct {
	digest, events, end uint64
	obs                 []uint64
}{
	"SNC4-flat": {0x797e606ac0b0b148, 1084, 0x40b445989c24a054, []uint64{ // end 5189.59613255419
		0x0000000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x4000000000000000,
		0x40728f54f57d6112, 0x0000000000000000, 0x4075fc2d59777603, 0x406b4d147ae147ac,
		0x0000000000000000, 0x406692d31c3184fe, 0x0000000000000000, 0x4008000000000000,
		0x4010000000000000, 0x0000000000000000, 0x4065bc43fcfb1e24, 0x406ab5bc88ae4478,
		0x4014000000000000, 0x4018000000000000, 0x401c000000000000, 0x4020000000000000,
		0x40992e0017c2e702, 0x40b25ece4ad0d3e8, 0x406e67501b556c40, 0x406e71fa0f242140,
	}},
	"QUAD-cache": {0x8f0a63c6366f3acf, 1529, 0x40b6912a068ad8a6, []uint64{ // end 5777.164162328618
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x3ff0000000000000,
		0x4071a5b3a69b2a0e, 0x4000000000000000, 0x4071eb5113cb24f9, 0x0000000000000000,
		0x0000000000000000, 0x405b751eb851eb94, 0x405b9e052c87c278, 0x0000000000000000,
		0x4008000000000000, 0x406b3978126f4af6, 0x406b6eea445db3fa, 0x4010000000000000,
		0x4014000000000000, 0x4018000000000000, 0x401c000000000000, 0x4020000000000000,
		0x40995b80eb71a884, 0x40b4a9aed0283590, 0x406e742b88ad7b00, 0x406e7b3b43a6e7c0,
	}},
	"SNC4-hybrid": {0xf03b0f5a6529309b, 1377, 0x40b619c37c4a3ae7, []uint64{ // end 5657.763615264302
		0x0000000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x0000000000000000,
		0x4070c4904d4a8a00, 0x40717c26f433b174, 0x4000000000000000, 0x4061861d7dbf4884,
		0x4062fb954189da14, 0x0000000000000000, 0x0000000000000000, 0x4008000000000000,
		0x406b61fccf4be164, 0x0000000000000000, 0x406b0a12276f6b48, 0x4010000000000000,
		0x4014000000000000, 0x4018000000000000, 0x401c000000000000, 0x4020000000000000,
		0x40996f476579d834, 0x40b43247549e5251, 0x406e760c43fad380, 0x406e7978b1823f40,
	}},
}

// TestKernelStepGoroutineEquivalence checks the spawned chase, stream,
// store-walk and flag kernels reproduce the goroutine engine's recorded
// state and host-visible measurements (kernelGolden) bit for bit.
func TestKernelStepGoroutineEquivalence(t *testing.T) {
	for _, cfg := range []knl.Config{
		knl.DefaultConfig(),
		knl.DefaultConfig().WithModes(knl.Quadrant, knl.CacheMode),
		knl.DefaultConfig().WithModes(knl.SNC4, knl.Hybrid),
	} {
		want, ok := kernelGolden[cfg.Name()]
		if !ok {
			t.Fatalf("no golden for %s", cfg.Name())
		}
		d, e, end, obs := kernelWorkload(t, cfg)
		if d != want.digest || e != want.events || math.Float64bits(end) != want.end {
			t.Errorf("%s: (%#016x, %d, %v), want (%#016x, %d, %v)", cfg.Name(),
				d, e, end, want.digest, want.events, math.Float64frombits(want.end))
		}
		if len(obs) != len(want.obs) {
			t.Fatalf("%s: %d observations, want %d", cfg.Name(), len(obs), len(want.obs))
		}
		for i, o := range obs {
			if math.Float64bits(o) != want.obs[i] {
				t.Errorf("%s: observation %d = %v, want %v", cfg.Name(), i, o, math.Float64frombits(want.obs[i]))
			}
		}
	}
}
