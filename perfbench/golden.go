package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
)

// goldenSeeds is the number of workload seeds with recorded goldens.
// --seed n selects workload seed 1 + (n-1) mod goldenSeeds, so any integer
// seed maps to inputs whose every output is checked.
const goldenSeeds = 8

// workloadSeed maps a command-line seed onto a recorded workload seed.
func workloadSeed(n int) int {
	m := (n - 1) % goldenSeeds
	if m < 0 {
		m += goldenSeeds
	}
	return 1 + m
}

// goldens maps a point name to its flattened output.
type goldens map[string][]string

func goldenPath(dir, workload string, seed int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
}

// loadGoldens reads and merges the goldens of parts for a workload seed.
func loadGoldens(dir string, parts []string, seed int) (goldens, error) {
	all := goldens{}
	for _, part := range parts {
		b, err := os.ReadFile(goldenPath(dir, part, seed))
		if err != nil {
			return nil, fmt.Errorf("load goldens: %w", err)
		}
		var g goldens
		if err := json.Unmarshal(b, &g); err != nil {
			return nil, fmt.Errorf("load goldens %s seed %d: %w", part, seed, err)
		}
		for k, v := range g {
			if _, dup := all[k]; dup {
				return nil, fmt.Errorf("load goldens %s seed %d: point %s is in two parts", part, seed, k)
			}
			all[k] = v
		}
	}
	return all, nil
}

func saveGoldens(dir, workload string, seed int, g goldens) error {
	// One point per line keeps golden diffs readable.
	names := make([]string, 0, len(g))
	for n := range g {
		names = append(names, n)
	}
	sort.Strings(names)
	buf := []byte("{\n")
	for i, n := range names {
		k, _ := json.Marshal(n)
		v, err := json.Marshal(g[n])
		if err != nil {
			return err
		}
		buf = append(buf, "  "...)
		buf = append(buf, k...)
		buf = append(buf, ": "...)
		buf = append(buf, v...)
		if i < len(names)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "}\n"...)
	return os.WriteFile(goldenPath(dir, workload, seed), buf, 0o644)
}

// mismatch compares a point's output with its golden and describes the
// first difference; "" means bit-identical.
func mismatch(got, want []string) string {
	if want == nil {
		return "no golden"
	}
	for i := range got {
		if i >= len(want) {
			return fmt.Sprintf("%d values, golden has %d", len(got), len(want))
		}
		if got[i] != want[i] {
			return fmt.Sprintf("value %d is %s, golden %s", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d values, golden has %d", len(got), len(want))
	}
	return ""
}

// flatten lists every scalar reachable from v in field order. Floats are
// printed in the shortest form that parses back to the same bits, so two
// outputs flatten equally only if they are bit-identical.
func flatten(v any) []string {
	var out []string
	var walk func(r reflect.Value)
	walk = func(r reflect.Value) {
		switch r.Kind() {
		case reflect.Float32, reflect.Float64:
			out = append(out, strconv.FormatFloat(r.Float(), 'g', -1, 64))
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			out = append(out, strconv.FormatInt(r.Int(), 10))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			out = append(out, strconv.FormatUint(r.Uint(), 10))
		case reflect.Bool:
			out = append(out, strconv.FormatBool(r.Bool()))
		case reflect.String:
			out = append(out, strconv.Quote(r.String()))
		case reflect.Struct:
			for i := 0; i < r.NumField(); i++ {
				walk(r.Field(i))
			}
		case reflect.Slice, reflect.Array:
			out = append(out, "len="+strconv.Itoa(r.Len()))
			for i := 0; i < r.Len(); i++ {
				walk(r.Index(i))
			}
		case reflect.Pointer, reflect.Interface:
			if r.IsNil() {
				out = append(out, "nil")
				return
			}
			walk(r.Elem())
		default:
			panic(fmt.Sprintf("flatten: unsupported kind %v", r.Kind()))
		}
	}
	walk(reflect.ValueOf(v))
	return out
}
