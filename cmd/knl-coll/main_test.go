package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestProfiles checks that -cpuprofile and -memprofile write non-empty
// profiles on a small run, and that the run still prints its figure.
func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-fig", "6", "-quick", "-csv", "-parallel", "1",
		"-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Threads,tuned p25,") {
		t.Errorf("stdout lacks the Figure 6 CSV header: %s", stdout.String())
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
}

// TestUsageErrors pins the flag validation: a bad schedule, figure or
// collective is a usage error (exit 2), not a silent default.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-sched", "bogus"}, `unknown schedule "bogus"`},
		{[]string{"-fig", "9"}, "-fig must be 6, 7 or 8"},
		{[]string{"-op", "gather"}, "unknown -op gather"},
		{[]string{"-nosuchflag"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit code %d, want 2; stderr: %s", c.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%q: stderr lacks %q: %s", c.args, c.want, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: usage error wrote to stdout: %s", c.args, stdout.String())
		}
	}
}
