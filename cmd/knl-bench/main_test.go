package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors pins the flag validation: a bad -table, -memmode or
// -iterations is a usage error (exit 2) that names the bad value and lists
// the flags, not a silent fallback or a panic.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-table", "3"}, "-table must be 1 or 2"},
		{[]string{"-table", "0", "-experiments"}, "-table must be 1 or 2"},
		{[]string{"-table", "2", "-memmode", "bogus"}, `"bogus"`},
		{[]string{"-memmode", ""}, `""`},
		{[]string{"-iterations", "-1"}, "-iterations -1 is negative"},
		{[]string{"-nosuchflag"}, "flag provided but not defined"},
		{[]string{"-table", "one"}, "invalid value"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit code %d, want 2; stderr: %s", c.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%q: stderr lacks %q: %s", c.args, c.want, stderr.String())
		}
		if !strings.Contains(stderr.String(), "-memmode string") {
			t.Errorf("%q: stderr lacks the flag listing: %s", c.args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: usage error wrote to stdout: %s", c.args, stdout.String())
		}
	}
}

// TestExperiments checks the cheapest successful run: -experiments prints
// the registry to stdout and exits 0.
func TestExperiments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiments"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, want 0; stderr: %s", code, stderr.String())
	}
	if stdout.Len() == 0 {
		t.Error("-experiments printed nothing")
	}
}
