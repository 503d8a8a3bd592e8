package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors pins the input validation: a budget or array size that
// is not a positive byte count that fits in 64 bits, and a malformed array
// spec, are usage errors (exit 2) that name the bad value — never a silent
// fallback to the 16 GB default or a wrapped-around size.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-budget", "-5g"}, `byte size "-5g" is not positive`},
		{[]string{"-budget", "0"}, `byte size "0" is not positive`},
		{[]string{"-budget", "0g"}, `byte size "0g" is not positive`},
		{[]string{"-budget", "99999999999g"}, `byte size "99999999999g" overflows 64 bits`},
		{[]string{"-budget", "99999999999999999999"}, `byte size "99999999999999999999" overflows 64 bits`},
		{[]string{"-budget", "8x"}, `bad byte size "8x"`},
		{[]string{"-budget", ""}, `bad byte size ""`},
		{[]string{"-array", "a:99999999999g:streaming:4"}, `byte size "99999999999g" overflows 64 bits`},
		{[]string{"-array", "a:-1k:streaming:4"}, `byte size "-1k" is not positive`},
		{[]string{"-array", "a:1g:bogus:4"}, `unknown pattern "bogus"`},
		{[]string{"-array", "a:1g:streaming"}, `bad array spec "a:1g:streaming"`},
		{[]string{"-array", "a:1g:streaming:0"}, `bad thread count in "a:1g:streaming:0"`},
		{[]string{"-array", "a:1g:streaming:4:-1"}, `bad touches in "a:1g:streaming:4:-1"`},
		{[]string{"-array", "a:1g:streaming:4:NaN"}, `bad touches in "a:1g:streaming:4:NaN"`},
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
		if !strings.Contains(stderr.String(), "-budget string") {
			t.Errorf("%q: stderr lacks the flag listing: %s", c.args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: usage error wrote to stdout: %s", c.args, stdout.String())
		}
	}
}

// TestRun checks that an explicit budget reaches the advisor, and that an
// unreadable model file is a runtime failure (exit 1).
func TestRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-budget", "8g", "-array", "grid:4g:streaming:128"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	if want := "of 8589934592 bytes"; !strings.Contains(stdout.String(), want) {
		t.Errorf("plan lacks %q: %s", want, stdout.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-model", "no/such/model.json"}, &stdout, &stderr); code != 1 {
		t.Errorf("missing model: exit %d, want 1; stderr: %s", code, stderr.String())
	}
}
