package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors pins the flag validation: a bad -workload, -cluster or
// -threads is a usage error (exit 2) that names the bad value, rejected
// before a machine is built or a process spawned (nothing reaches stdout).
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-threads", "0"}, "-threads 0 outside 1-256"},
		{[]string{"-threads", "-3"}, "-threads -3 outside 1-256"},
		{[]string{"-threads", "257"}, "-threads 257 outside 1-256"},
		{[]string{"-workload", "contention", "-threads", "1000"}, "-threads 1000 outside 1-256"},
		{[]string{"-workload", "bogus"}, `unknown -workload "bogus"`},
		{[]string{"-workload", ""}, `unknown -workload ""`},
		{[]string{"-cluster", "bogus"}, `unknown cluster mode "bogus"`},
		{[]string{"extra"}, `unexpected argument "extra"`},
		{[]string{"-nosuchflag"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != 2 {
			t.Errorf("%q: exit code %d, want 2; stderr: %s", c.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%q: stderr lacks %q: %s", c.args, c.want, stderr.String())
		}
		if !strings.Contains(stderr.String(), "-workload string") {
			t.Errorf("%q: stderr lacks the flag listing: %s", c.args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: usage error wrote to stdout: %s", c.args, stdout.String())
		}
	}
}

// TestRun checks a small traced run end to end, CSV included, and that a
// CSV path that cannot be created is a runtime failure (exit 1).
func TestRun(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "trace.csv")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "contention", "-threads", "4", "-csv", csv}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), `workload "contention" on SNC4-flat: `) ||
		strings.Contains(stdout.String(), ": 0 traced operations") {
		t.Errorf("unexpected report: %s", stdout.String())
	}
	if fi, err := os.Stat(csv); err != nil || fi.Size() == 0 {
		t.Errorf("CSV not written: %v", err)
	}

	stdout.Reset()
	stderr.Reset()
	bad := filepath.Join(t.TempDir(), "missing", "trace.csv")
	if code := run([]string{"-workload", "pingpong", "-csv", bad}, &stdout, &stderr); code != 1 {
		t.Errorf("unwritable CSV: exit %d, want 1; stderr: %s", code, stderr.String())
	}
}
