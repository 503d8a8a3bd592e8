package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"knlcap/internal/stats"
)

// fingerprint identifies the host and build a record was measured with.
// Records compare only when every field but Commit and Source agrees.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"` // VCS revision the binary was built from, or "unknown"
	Source     string `json:"source"` // SHA-256 prefix over the module's Go sources
}

// host reports whether two fingerprints describe the same host setup.
func (f fingerprint) host() fingerprint {
	f.Commit, f.Source = "", ""
	return f
}

func hostFingerprint(workers int) fingerprint {
	f := fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				f.Commit = s.Value
			}
		}
	}
	return f
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under root, skipping
// hidden directories such as the build output, so that records made from
// checkouts without version control still name the code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		// A hash.Hash never returns a write error.
		_, _ = h.Write([]byte(filepath.ToSlash(path) + "\x00"))
		_, _ = h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// A record is one run of the benchmark as written to the records directory.
type record struct {
	Fingerprint fingerprint          `json:"fingerprint"`
	Workload    string               `json:"workload"`
	Seed        int                  `json:"seed"`
	Trace       int                  `json:"trace"`
	Seconds     float64              `json:"seconds"`
	Result      result               `json:"result"`
	Passes      []map[string]float64 `json:"passes,omitempty"`
}

func writeRecord(dir string, r record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	for i := 0; ; i++ {
		name := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", r.Workload, r.Seed, r.Trace, i))
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return fmt.Errorf("write record: %w", err)
		}
		if _, err := f.Write(b); err != nil {
			_ = f.Close() // the write error is the one to report
			return fmt.Errorf("write record: %w", err)
		}
		return f.Close()
	}
}

func readRecords(dir string) ([]record, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []record
	for _, n := range names {
		b, err := os.ReadFile(n)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no records in %s", dir)
	}
	return out, nil
}

// compareMain prints, per workload and metric, the median of the records in
// directory A, the median in directory B and their ratio. It refuses when
// the records were not all made on the same host setup.
func compareMain(args []string, w *bytes.Buffer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare DIR_A DIR_B")
		return 2
	}
	var sides [2][]record
	for i, dir := range args {
		rs, err := readRecords(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
		sides[i] = rs
	}
	want := sides[0][0].Fingerprint.host()
	for _, rs := range sides {
		for _, r := range rs {
			if got := r.Fingerprint.host(); got != want {
				fmt.Fprintf(os.Stderr, "perfbench compare: fingerprints differ, refusing to compare:\n  %+v\n  %+v\n", want, got)
				return 1
			}
		}
	}
	type key struct{ workload, metric, unit string }
	vals := [2]map[key][]float64{{}, {}}
	for i, rs := range sides {
		for _, r := range rs {
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, name, m.Unit}
				vals[i][k] = append(vals[i][k], m.Value)
			}
		}
	}
	var keys []key
	for k := range vals[0] {
		if _, ok := vals[1][k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-8s %-28s %14s %14s %8s  %s\n", "workload", "metric", "median A", "median B", "B/A", "runs A/B")
	for _, k := range keys {
		a, b := stats.Median(vals[0][k]), stats.Median(vals[1][k])
		fmt.Fprintf(w, "%-8s %-28s %14.6g %14.6g %8.4f  %d/%d %s\n", k.workload, k.metric, a, b, b/a,
			len(vals[0][k]), len(vals[1][k]), k.unit)
	}
	return 0
}
