package msort

import (
	"math"
	"testing"

	"knlcap/internal/knl"
	"knlcap/internal/machine"
)

// simGolden pins Simulate to the values of its goroutine-Thread
// implementation: the completion time as exact float64 bits, plus the
// final machine's state digest and event count. The rank programs must
// replay the same traffic event for event, so any drift here is a
// semantic change to Figure 10, not an engine detail. The quadrant-cache
// rows cover the MCDRAM-to-DDR fallback: both kinds give the same run.
var simGolden = []struct {
	cfg     string
	kind    knl.MemKind
	lines   int
	threads int
	finish  uint64 // math.Float64bits of the completion time
	digest  uint64
	events  uint64
}{
	{"SNC4-flat", knl.DDR, 16, 1, 0x40ac3ec25c72dd08, 0x377ab5a757f26778, 207},
	{"SNC4-flat", knl.DDR, 16, 4, 0x40a88ad92421f7a7, 0xda237e7993d90613, 466},
	{"SNC4-flat", knl.DDR, 16, 64, 0x40adb6a228db8af9, 0x799a8539dd6345da, 864},
	{"SNC4-flat", knl.DDR, 16, 256, 0x40adb6a228db8af9, 0x799a8539dd6345da, 864},
	{"SNC4-flat", knl.DDR, 4096, 1, 0x41304df1005b4328, 0xc161dfa74d31f824, 112400},
	{"SNC4-flat", knl.DDR, 4096, 4, 0x4122eefd4b9ff053, 0x1e7b044e177abb4c, 178266},
	{"SNC4-flat", knl.DDR, 4096, 64, 0x410f41efb96e1edf, 0xb6a40e45845006be, 161481},
	{"SNC4-flat", knl.DDR, 4096, 256, 0x410f8be096df929b, 0xa481dd628a80a3ea, 164105},
	{"SNC4-flat", knl.MCDRAM, 16, 1, 0x40af37eb8b164d7e, 0xa92b9afacf44d146, 197},
	{"SNC4-flat", knl.MCDRAM, 16, 4, 0x40aa2a679d605514, 0x2d4821f452714f35, 416},
	{"SNC4-flat", knl.MCDRAM, 16, 64, 0x40aee8bae3f0ef28, 0xafc116f8cbf1b5b8, 851},
	{"SNC4-flat", knl.MCDRAM, 16, 256, 0x40aee8bae3f0ef28, 0xafc116f8cbf1b5b8, 851},
	{"SNC4-flat", knl.MCDRAM, 4096, 1, 0x41325728bb45d517, 0x637442a1450860c7, 110655},
	{"SNC4-flat", knl.MCDRAM, 4096, 4, 0x41243e75f7e3c63a, 0x3f26648fc138b905, 168932},
	{"SNC4-flat", knl.MCDRAM, 4096, 64, 0x410f68417f9f4f34, 0x290ee86714895704, 156785},
	{"SNC4-flat", knl.MCDRAM, 4096, 256, 0x41100ef3d3daf4d4, 0xf121ad7e004ba1b5, 163880},
	{"A2A-flat", knl.DDR, 16, 1, 0x40ac788978885779, 0x4b4eae471dd388e2, 231},
	{"A2A-flat", knl.DDR, 16, 4, 0x40a8c0e40594a124, 0x8924f9a257e0d811, 485},
	{"A2A-flat", knl.DDR, 16, 64, 0x40ad76b0dcb549b8, 0x3adba2cccdd90651, 812},
	{"A2A-flat", knl.DDR, 16, 256, 0x40ad76b0dcb549b8, 0x3adba2cccdd90651, 812},
	{"A2A-flat", knl.DDR, 4096, 1, 0x41305abf97731c68, 0xb6c6f665ab5d92c7, 116919},
	{"A2A-flat", knl.DDR, 4096, 4, 0x4122f50a5cec3a23, 0x7fa7d06354bb95f2, 179007},
	{"A2A-flat", knl.DDR, 4096, 64, 0x410e716a3de54477, 0x4f28a708382d812b, 168918},
	{"A2A-flat", knl.DDR, 4096, 256, 0x410efd2e4b16bbe1, 0xaa7d993bf12fa1e4, 172112},
	{"A2A-flat", knl.MCDRAM, 16, 1, 0x40afa19bbc2fbb9f, 0x384333c09a7a578d, 229},
	{"A2A-flat", knl.MCDRAM, 16, 4, 0x40aa7b74d4b2be24, 0xd3fa128cc2bf5eab, 465},
	{"A2A-flat", knl.MCDRAM, 16, 64, 0x40af361baca25b25, 0x096fb9af3643bcc1, 815},
	{"A2A-flat", knl.MCDRAM, 16, 256, 0x40af361baca25b25, 0x096fb9af3643bcc1, 815},
	{"A2A-flat", knl.MCDRAM, 4096, 1, 0x413271c693eb66b1, 0x206914fee4129200, 118920},
	{"A2A-flat", knl.MCDRAM, 4096, 4, 0x41244bbf3058745e, 0xd6becd2e15a2fcfd, 175886},
	{"A2A-flat", knl.MCDRAM, 4096, 64, 0x410f6805a08363db, 0x09cff633cdac1598, 173102},
	{"A2A-flat", knl.MCDRAM, 4096, 256, 0x410fcdba2788c06d, 0x610c3c60593ca97a, 180548},
	{"QUAD-cache", knl.DDR, 16, 1, 0x40aec737616c4e79, 0x0c27034f07ce6eb4, 283},
	{"QUAD-cache", knl.DDR, 16, 4, 0x40aabc39dc4d393a, 0x0b29f1f3e19ba02b, 628},
	{"QUAD-cache", knl.DDR, 16, 64, 0x40b00ebabd4a2741, 0x3a9700013dd680e8, 1179},
	{"QUAD-cache", knl.DDR, 16, 256, 0x40b00ebabd4a2741, 0x3a9700013dd680e8, 1179},
	{"QUAD-cache", knl.DDR, 4096, 1, 0x41323b02a143b1e0, 0x8419145432fb340b, 128859},
	{"QUAD-cache", knl.DDR, 4096, 4, 0x4124316b1b38dcc0, 0x839e25b6637ff50d, 184884},
	{"QUAD-cache", knl.DDR, 4096, 64, 0x410ff9c4720f3dae, 0x2f46305aa6c264a8, 183542},
	{"QUAD-cache", knl.DDR, 4096, 256, 0x411032da0a83262e, 0x57174f4f941a73a3, 193047},
	{"QUAD-cache", knl.MCDRAM, 16, 1, 0x40aec737616c4e79, 0x0c27034f07ce6eb4, 283},
	{"QUAD-cache", knl.MCDRAM, 16, 4, 0x40aabc39dc4d393a, 0x0b29f1f3e19ba02b, 628},
	{"QUAD-cache", knl.MCDRAM, 16, 64, 0x40b00ebabd4a2741, 0x3a9700013dd680e8, 1179},
	{"QUAD-cache", knl.MCDRAM, 16, 256, 0x40b00ebabd4a2741, 0x3a9700013dd680e8, 1179},
	{"QUAD-cache", knl.MCDRAM, 4096, 1, 0x41323b02a143b1e0, 0x8419145432fb340b, 128859},
	{"QUAD-cache", knl.MCDRAM, 4096, 4, 0x4124316b1b38dcc0, 0x839e25b6637ff50d, 184884},
	{"QUAD-cache", knl.MCDRAM, 4096, 64, 0x410ff9c4720f3dae, 0x2f46305aa6c264a8, 183542},
	{"QUAD-cache", knl.MCDRAM, 4096, 256, 0x411032da0a83262e, 0x57174f4f941a73a3, 193047},
}

// goldenConfigs are the machine configurations simGolden covers, by name.
func goldenConfigs() map[string]knl.Config {
	out := map[string]knl.Config{}
	for _, cfg := range []knl.Config{
		knl.DefaultConfig(), // SNC4-flat
		knl.DefaultConfig().WithModes(knl.A2A, knl.Flat),
		knl.DefaultConfig().WithModes(knl.Quadrant, knl.CacheMode),
	} {
		out[cfg.Name()] = cfg
	}
	return out
}

// TestSimulateGolden simulates every golden row on a fresh machine and
// compares completion time, digest and event count, and checks that the
// public entry point agrees with the seam on the small rows.
func TestSimulateGolden(t *testing.T) {
	cfgs := goldenConfigs()
	for _, g := range simGolden {
		cfg := cfgs[g.cfg]
		m := machine.New(cfg)
		got := simulate(m, DefaultSimParams(g.lines, g.threads, g.kind)).Float()
		if bits := math.Float64bits(got); bits != g.finish {
			t.Errorf("%s/%v lines=%d threads=%d: finish %v (%#016x), want %v (%#016x)",
				g.cfg, g.kind, g.lines, g.threads, got, bits, math.Float64frombits(g.finish), g.finish)
		}
		if end := m.Env.Now(); end != got {
			t.Errorf("%s/%v lines=%d threads=%d: end time %v after finish %v",
				g.cfg, g.kind, g.lines, g.threads, end, got)
		}
		if d := m.StateDigest(); d != g.digest {
			t.Errorf("%s/%v lines=%d threads=%d: digest %#016x, want %#016x",
				g.cfg, g.kind, g.lines, g.threads, d, g.digest)
		}
		if ev := m.Env.Seq(); ev != g.events {
			t.Errorf("%s/%v lines=%d threads=%d: %d events, want %d",
				g.cfg, g.kind, g.lines, g.threads, ev, g.events)
		}
	}
	for _, g := range simGolden {
		if g.lines != 16 {
			continue
		}
		got := Simulate(cfgs[g.cfg], DefaultSimParams(g.lines, g.threads, g.kind))
		if bits := math.Float64bits(got.Float()); bits != g.finish {
			t.Errorf("Simulate %s/%v lines=%d threads=%d: %#016x, want %#016x",
				g.cfg, g.kind, g.lines, g.threads, bits, g.finish)
		}
	}
}
