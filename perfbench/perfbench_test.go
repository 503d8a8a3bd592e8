package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sortModelOnly is the sort workload cut to its cheap points: the overhead
// fit and the model curves, all checked against the real goldens.
func sortModelOnly() workload {
	w := part("sort")
	full := w.plan
	w.plan = func(in inputs) []batch {
		bs := full(in)
		var model []point
		for _, bt := range bs[1:] {
			for _, p := range bt.points {
				if strings.HasSuffix(p.name, "/model") {
					model = append(model, p)
				}
			}
		}
		return []batch{bs[0], {points: model, fan: true}}
	}
	return w
}

func TestCorruptGoldenIsCaught(t *testing.T) {
	b := &bencher{w: sortModelOnly(), in: inputs{seed: 1, workers: 2}, t0: time.Now()}
	g, err := loadGoldens("golden", []string{"sort"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if po := b.pass(g, nil); po.failed != 0 || po.attempted != 19 {
		t.Fatalf("clean goldens: %d of %d points failed, want 0 of 19", po.failed, po.attempted)
	}
	// Move one golden value by a single ULP.
	v, err := strconv.ParseFloat(g["fit-overhead"][0], 64)
	if err != nil {
		t.Fatal(err)
	}
	g["fit-overhead"] = append([]string(nil), g["fit-overhead"]...)
	g["fit-overhead"][0] = strconv.FormatFloat(math.Nextafter(v, math.Inf(1)), 'g', -1, 64)
	if po := b.pass(g, nil); po.failed != 1 {
		t.Fatalf("one corrupted golden value: %d points failed, want 1", po.failed)
	}
}

func TestPanickingPointFails(t *testing.T) {
	w := workload{name: "panic", plan: func(inputs) []batch {
		return []batch{{points: []point{
			{"ok", "x", func() any { return 1.5 }},
			{"boom", "x", func() any { panic("boom") }},
		}, fan: true}}
	}}
	b := &bencher{w: w, in: inputs{seed: 1, workers: 2}, t0: time.Now()}
	po := b.pass(goldens{"ok": {"1.5"}, "boom": {"1"}}, nil)
	if po.attempted != 2 || po.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", po.attempted, po.failed)
	}
}

func TestWorkloadSeedCoversGoldens(t *testing.T) {
	for n := -20; n <= 20; n++ {
		s := workloadSeed(n)
		if s < 1 || s > goldenSeeds {
			t.Fatalf("workloadSeed(%d) = %d", n, s)
		}
	}
	if workloadSeed(1) != 1 || workloadSeed(goldenSeeds+1) != 1 {
		t.Fatal("seed 1 must be the default workload seed")
	}
	for _, w := range parts {
		for s := 1; s <= goldenSeeds; s++ {
			if _, err := os.Stat(goldenPath("golden", w.name, s)); err != nil {
				t.Errorf("missing goldens: %v", err)
			}
		}
	}
}

// Every benchmark workload loads the goldens of its parts for every seed,
// with no point in two parts.
func TestWorkloadGoldensLoad(t *testing.T) {
	for _, w := range workloads {
		for s := 1; s <= goldenSeeds; s++ {
			if _, err := loadGoldens("golden", w.parts, s); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
	}
}

func spin(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

func TestSelfSecondsParsesCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	ss, err := selfSeconds(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range ss {
		total += v
	}
	if total < 0.1 || ss["other"] < 0.5*total {
		t.Fatalf("self seconds %v: want most of ~0.3 s in other", ss)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"knlcap/internal/sim.(*Env).Run":       "sim",
		"knlcap/internal/exp.RunPooled[...]":   "exp",
		"knlcap/internal/stats.Median":         "other",
		"runtime.chanrecv1":                    "runtime.sched",
		"runtime.mallocgc":                     "other",
		"main.(*bencher).pass":                 "other",
		"knlcap/internal/cache.(*SetAssoc).At": "cache",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	fp := hostFingerprint(2)
	r := record{Fingerprint: fp, Workload: "sort", Seed: 1,
		Result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"wall_s": {1, "s"}}}}
	if err := writeRecord(a, r); err != nil {
		t.Fatal(err)
	}
	r.Fingerprint.Commit = "other"
	if err := writeRecord(b, r); err != nil {
		t.Fatal(err)
	}
	if code := compareMain([]string{a, b}, new(bytes.Buffer)); code != 0 {
		t.Fatalf("same host, other commit: exit %d, want 0", code)
	}
	r.Fingerprint.Workers = 1
	if err := writeRecord(b, r); err != nil {
		t.Fatal(err)
	}
	if code := compareMain([]string{a, b}, new(bytes.Buffer)); code != 1 {
		t.Fatalf("different worker count: exit %d, want 1", code)
	}
}

// The metric lists the binary prints must be the ones BENCHMARK.json
// declares, in name and unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ name, unit string }, want []decl) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d] = %s %s, BENCHMARK.json has %s %s", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json declares %d", len(workloads), len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		if workloads[i].name != w.Name {
			t.Errorf("workload %d is %s, BENCHMARK.json has %s", i, workloads[i].name, w.Name)
		}
	}
}
