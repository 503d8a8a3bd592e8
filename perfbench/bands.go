package main

import (
	"fmt"
	"math"

	"knlcap/internal/bench"
	"knlcap/internal/coll"
	"knlcap/internal/knl"
	"knlcap/internal/units"
)

// A bandRow is one output row of a workload next to the paper's band for
// it, as transcribed in EXPERIMENTS.md. README.md lists the row→band table
// and the rows known to lie outside their band.
type bandRow struct {
	name   string
	value  float64
	lo, hi float64
}

// distance is the relative distance of the value outside the band, 0
// inside it.
func (r bandRow) distance() float64 {
	switch {
	case r.value < r.lo:
		return (r.lo - r.value) / r.lo
	case r.value > r.hi:
		return (r.value - r.hi) / r.hi
	}
	return 0
}

// paperErrPct is the mean relative distance of the rows outside their
// bands, in percent.
func paperErrPct(rows []bandRow) float64 {
	if len(rows) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rows {
		sum += r.distance()
	}
	return 100 * sum / float64(len(rows))
}

// get returns the output of a point; points that failed to run have none
// and contribute no rows.
func get[T any](out map[string]any, name string) (T, bool) {
	v, ok := out[name].(T)
	return v, ok
}

func band(name string, v, lo, hi float64) bandRow { return bandRow{name, v, lo, hi} }

// rangeRows checks both ends of a min-max cell against the band.
func rangeRows(name string, r bench.Range, lo, hi float64) []bandRow {
	return []bandRow{band(name+" lo", r.Lo, lo, hi), band(name+" hi", r.Hi, lo, hi)}
}

// Table I and Figures 6-8 (EXPERIMENTS.md "Table I" and "Headline claims").
func c2cBands(out map[string]any) []bandRow {
	var rows []bandRow
	for _, cm := range knl.ClusterModes {
		c := cm.String()
		if l, ok := get[bench.CacheLatencies](out, c+"/latency"); ok {
			rows = append(rows,
				band(c+" latency L1", l.LocalL1, 3.8, 3.8),
				band(c+" latency tile M", l.TileM, 34, 34),
				band(c+" latency tile E", l.TileE, 17, 18),
				band(c+" latency tile S/F", l.TileSF, 14, 14))
			rows = append(rows, rangeRows(c+" latency remote M", l.RemoteM, 107, 125)...)
			rows = append(rows, rangeRows(c+" latency remote E", l.RemoteE, 98, 117)...)
			rows = append(rows, rangeRows(c+" latency remote S/F", l.RemoteSF, 96, 118)...)
		}
		if b, ok := get[bench.CacheBandwidths](out, c+"/bandwidth"); ok {
			rows = append(rows,
				band(c+" BW read", b.Read, 2.5, 2.5),
				band(c+" BW copy tile M", b.CopyTileM, 6.7, 7.5),
				band(c+" BW copy tile E", b.CopyTileE, 6.7, 9.2),
				band(c+" BW copy remote", b.CopyRemote, 6.7, 7.7))
		}
		if g, ok := get[bench.CongestionResult](out, c+"/congestion"); ok {
			// The paper finds no congestion; the table prints "None" below 1.15.
			rows = append(rows, band(c+" congestion ratio", g.Ratio, 0, 1.15))
		}
		if t, ok := get[bench.ContentionResult](out, c+"/contention"); ok {
			rows = append(rows,
				band(c+" contention alpha", t.Alpha, 200, 200),
				band(c+" contention beta", t.Beta, 34, 34))
		}
		if m, ok := get[bench.MultiLineFit](out, c+"/multiline"); ok {
			// 1/β is the copy bandwidth: the paper's copy cells span 6.7-9.2 GB/s.
			rows = append(rows, band(c+" multi-line 1/beta", knl.LineSize/m.Beta, 6.7, 9.2))
		}
	}
	// Headline claim: tuned collectives are 3-24x faster than the baselines,
	// as maxima over 8-64 threads with the scatter schedule.
	for _, op := range []coll.Op{coll.Barrier, coll.Bcast, coll.Reduce} {
		name := fmt.Sprintf("coll/%v/scatter", op)
		if pts, ok := get[[]coll.FigurePoint](out, name); ok {
			var from8 []coll.FigurePoint
			for _, p := range pts {
				if p.Threads >= 8 {
					from8 = append(from8, p)
				}
			}
			omp, mpi := coll.MaxSpeedups(from8)
			rows = append(rows, band(name+" speedup vs OMP", omp, 3, 24),
				band(name+" speedup vs MPI", mpi, 3, 24))
		}
	}
	return rows
}

// Table II, flat and cache mode (EXPERIMENTS.md "Table II").
func streamBands(out map[string]any) []bandRow {
	type kindBands struct{ copyNT, read, write, triadNT [2]float64 }
	flat := map[knl.MemKind]kindBands{
		knl.DDR:    {[2]float64{69, 71}, [2]float64{71, 77}, [2]float64{33, 36}, [2]float64{71, 74}},
		knl.MCDRAM: {[2]float64{306, 342}, [2]float64{243, 314}, [2]float64{147, 171}, [2]float64{325, 371}},
	}
	cacheMode := kindBands{[2]float64{130, 175}, [2]float64{87, 128}, [2]float64{56, 72}, [2]float64{246, 296}}
	var rows []bandRow
	for _, mm := range []knl.MemoryMode{knl.Flat, knl.CacheMode} {
		for _, cm := range []knl.ClusterMode{knl.SNC4, knl.A2A} {
			col := cm.String() + "-" + mm.String()
			if l, ok := get[bench.MemLatencies](out, col+"/latency"); ok {
				if mm == knl.Flat {
					rows = append(rows, rangeRows(col+" latency DRAM", l.DRAM, 130, 146)...)
					rows = append(rows, rangeRows(col+" latency MCDRAM", l.MCDRAM, 160, 175)...)
				} else {
					rows = append(rows, rangeRows(col+" latency", l.Cache, 158, 178)...)
				}
			}
			kinds := []knl.MemKind{knl.DDR}
			if mm == knl.Flat {
				kinds = append(kinds, knl.MCDRAM)
			}
			for _, kind := range kinds {
				kb := cacheMode
				if mm == knl.Flat {
					kb = flat[kind]
				}
				for i, k := range streamKernels {
					b := [...][2]float64{kb.copyNT, kb.read, kb.write, kb.triadNT}[i]
					name := fmt.Sprintf("%s/%v/%v-nt", col, kind, k)
					if p, ok := get[bench.MemBWPoint](out, name); ok {
						rows = append(rows, band(name, p.GBs, b[0], b[1]))
					}
				}
				// "STREAM peaks ≥ medians": each peak at least its NT median.
				for _, k := range []bench.StreamKernel{bench.KernelCopy, bench.KernelTriad} {
					pre := fmt.Sprintf("%s/%v/%v", col, kind, k)
					peak, ok1 := get[float64](out, pre+"-stream")
					med, ok2 := get[bench.MemBWPoint](out, pre+"-nt")
					if ok1 && ok2 && mm == knl.Flat {
						rows = append(rows, band(pre+" STREAM/NT median", peak/med.GBs, 1, math.Inf(1)))
					}
				}
			}
		}
	}
	return rows
}

// Figure 10 (EXPERIMENTS.md "Figure 10" and "Headline claims").
func sortBands(out map[string]any) []bandRow {
	var rows []bandRow
	for _, tc := range sortThreads {
		var measured [2]units.Nanos
		for i, kind := range []knl.MemKind{knl.DDR, knl.MCDRAM} {
			name := fmt.Sprintf("fig10/%v/t%d", kind, tc)
			t, ok1 := get[units.Nanos](out, name+"/measured")
			m, ok2 := get[sortModel](out, name+"/model")
			measured[i] = t
			if !ok1 || !ok2 {
				continue
			}
			// The measured sort lies between the bandwidth- and
			// latency-based memory models.
			lo, hi := math.Min(m.MemBW.Float(), m.MemLat.Float()), math.Max(m.MemBW.Float(), m.MemLat.Float())
			rows = append(rows, band(name+" measured within memory models", t.Float(), lo, hi))
		}
		if measured[0] > 0 && measured[1] > 0 {
			// MCDRAM does not help the merge sort: within 5% of DRAM.
			rows = append(rows, band(fmt.Sprintf("fig10/t%d DRAM/MCDRAM time", tc),
				measured[0].Float()/measured[1].Float(), 1/1.05, 1.05))
		}
	}
	return rows
}
