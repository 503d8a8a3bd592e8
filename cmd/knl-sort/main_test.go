package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors pins the flag validation: a bad -kind or -lines must be
// a usage error (exit 2) that names the bad value, not a silent run of the
// default suite.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-kind", "bogus"}, `unknown -kind "bogus"`},
		{[]string{"-kind", ""}, `unknown -kind ""`},
		{[]string{"-kind", "DRAM"}, `unknown -kind "DRAM"`},
		{[]string{"-lines", "-5"}, "-lines -5 is negative"},
		{[]string{"-kind", "dram", "-lines", "-1"}, "-lines -1 is negative"},
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
		if !strings.Contains(stderr.String(), "-kind string") {
			t.Errorf("%q: stderr lacks the flag listing: %s", c.args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: usage error wrote to stdout: %s", c.args, stdout.String())
		}
	}
}

// TestCPUProfile checks that -cpuprofile and -memprofile write non-empty
// profiles on a small run, and that the run still prints its panel.
func TestCPUProfile(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-kind", "mcdram", "-lines", "16", "-parallel", "1",
		"-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Figure 10: sorting 16 lines of integers (MCDRAM") {
		t.Errorf("stdout lacks the 16-line MCDRAM panel: %s", stdout.String())
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
