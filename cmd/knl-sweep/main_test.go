package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors pins the flag validation: a bad -fig or -sched is a
// usage error (exit 2) that names the bad value and lists the flags, not a
// silent fallback to a default figure or schedule.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "6"}, "-fig must be 4, 5 or 9"},
		{[]string{"-fig", "9", "-sched", "bogus"}, `unknown -sched "bogus"`},
		{[]string{"-sched", "scatter"}, `unknown -sched "scatter"`},
		{[]string{"-nosuchflag"}, "flag provided but not defined"},
		{[]string{"-fig", "four"}, "invalid value"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit code %d, want 2; stderr: %s", c.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%q: stderr lacks %q: %s", c.args, c.want, stderr.String())
		}
		if !strings.Contains(stderr.String(), "-sched string") {
			t.Errorf("%q: stderr lacks the flag listing: %s", c.args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: usage error wrote to stdout: %s", c.args, stdout.String())
		}
	}
}

// TestFigure9CSV runs the cheapest figure end to end and checks the CSV
// header reaches stdout with exit code 0.
func TestFigure9CSV(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "9", "-quick", "-csv", "-parallel", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, want 0; stderr: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "Threads,Cores,Kind,GB/s") {
		t.Errorf("stdout lacks the Figure 9 CSV header: %s", stdout.String())
	}
}
