package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestDispatch pins the binary's outer contract: no subcommand, an unknown
// one, or an old top-level flag prints the usage to stderr and exits 2; a
// mistake inside a subcommand also exits 2 with its reason on stderr; nothing
// reaches stdout in either case; the two index listings name every demo and
// every experiment.
func TestDispatch(t *testing.T) {
	const usage = "usage: taureau <subcommand> [flags]"
	for _, tc := range []struct {
		args   []string
		exit   int
		stderr string // substring
		stdout string // first line; "" = stdout must be empty
		lines  int    // stdout line count
	}{
		{args: nil, exit: 2, stderr: usage},
		{args: []string{"bogus"}, exit: 2, stderr: "unknown subcommand \"bogus\"\n" + usage},
		{args: []string{"-demo", "invoke"}, exit: 2, stderr: usage},
		{args: []string{"demo"}, exit: 2, stderr: "demo -list"},
		{args: []string{"demo", "invoke", "-format", "xml"}, exit: 2, stderr: `unknown -format "xml"`},
		{args: []string{"sebs", "stray"}, exit: 2, stderr: `unexpected argument "stray"`},
		{args: []string{"sebs", "-apps", "webapp,nosuch"}, exit: 1, stderr: `unknown apps ["nosuch"]`},
		{args: []string{"sebs", "-requests", "1", "-apps", "webapp, video"}, exit: 0, stdout: "{", lines: 32},
		{args: []string{"experiments", "-e", "E99"}, exit: 2, stderr: `unknown experiment "E99"`},
		{args: []string{"demo", "-list"}, exit: 0, stdout: "burst", lines: len(demos)},
		{args: []string{"experiments", "-list"}, exit: 0, stdout: "E1   cost-efficiency", lines: 27},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.exit {
			t.Errorf("%q: exit %d, want %d (stderr: %s)", tc.args, got, tc.exit, &stderr)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%q: stderr %q lacks %q", tc.args, &stderr, tc.stderr)
		}
		if tc.stdout == "" {
			if stdout.Len() != 0 {
				t.Errorf("%q: wrote to stdout: %q", tc.args, &stdout)
			}
			continue
		}
		lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
		if len(lines) != tc.lines || lines[0] != tc.stdout {
			t.Errorf("%q: %d stdout lines starting %q, want %d starting %q", tc.args, len(lines), lines[0], tc.lines, tc.stdout)
		}
	}
	if len(demos) != 7 {
		t.Errorf("%d demos, want the seven the usage lists", len(demos))
	}
}
