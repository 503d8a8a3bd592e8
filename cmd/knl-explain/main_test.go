package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors pins the flag validation: an out-of-range core or an
// unknown flag value must be a usage error (exit 2) that names the bad
// value, never a panic or a silent fallback.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-from", "99"}, "-from 99 is not a core (want 0-63)"},
		{[]string{"-from", "64"}, "-from 64 is not a core"},
		{[]string{"-from", "-1"}, "-from -1 is not a core"},
		{[]string{"-owner", "64"}, "-owner 64 is not a core (want 0-63)"},
		{[]string{"-owner", "-3", "-state", "I"}, "-owner -3 is not a core"},
		{[]string{"-state", "X"}, `-state "X" must be M, E, S, F or I`},
		{[]string{"-kind", "hbm"}, `unknown -kind "hbm"`},
		{[]string{"-cluster", "SNC3"}, "SNC3"},
		{[]string{"-memmode", "bogus"}, "bogus"},
		{[]string{"-memmode", "cache", "-kind", "mcdram"}, "no flat MCDRAM in cache mode"},
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
		if !strings.Contains(stderr.String(), "-from int") {
			t.Errorf("%q: stderr lacks the flag listing: %s", c.args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: usage error wrote to stdout: %s", c.args, stdout.String())
		}
	}
}

// TestEdgeCores runs the first and last core as requester and owner: the
// range check must admit both ends.
func TestEdgeCores(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-from", "63", "-owner", "0"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "request: core 63 (tile 31) loads a line held M by core 0 (tile 0)") {
		t.Errorf("stdout lacks the request line: %s", stdout.String())
	}
}
