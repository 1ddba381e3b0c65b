package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildEhload compiles the command once per test binary, so the flag
// table runs against the real main() — flag registration, validation
// order, exit codes and all.
func buildEhload(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ehload")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building ehload: %v\n%s", err, out)
	}
	return bin
}

// TestFlagValidation pins the usage-error contract: an invalid
// invocation exits 2 (flag-package convention, distinct from a failed
// run's exit 1) with a message naming the offending flag, before any
// connection is attempted.
func TestFlagValidation(t *testing.T) {
	bin := buildEhload(t)
	tests := []struct {
		name string
		args []string
		want string // required substring of stderr
	}{
		{"conns zero", []string{"-conns", "0"}, "-conns"},
		{"conns negative", []string{"-conns", "-3"}, "-conns"},
		{"pipeline zero", []string{"-pipeline", "0"}, "-pipeline"},
		{"pipeline negative", []string{"-pipeline", "-1"}, "-pipeline"},
		{"batch malformed", []string{"-batch", "banana"}, "-batch"},
		{"batch negative", []string{"-batch", "-5"}, "-batch"},
		{"load zero", []string{"-load", "0"}, "-load"},
		{"duration zero without ops", []string{"-duration", "0s"}, "-duration"},
		{"unknown mix", []string{"-mix", "Z"}, "mix"},
		{"unknown dist", []string{"-dist", "pareto"}, "distribution"},
		{"failover without follower addr", []string{"-failover-check"}, "-follower-addr"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("args %v: err = %v (output %q), want a usage-error exit", tc.args, err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("args %v: exit code = %d, want 2\noutput: %s", tc.args, code, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("args %v: stderr %q does not mention %q", tc.args, out, tc.want)
			}
		})
	}
}

// TestFailoverCheckCmdValidation pins the managed-process mode's own
// prechecks: they run before any process is started and fail with exit 1
// and a message naming the missing ingredient.
func TestFailoverCheckCmdValidation(t *testing.T) {
	bin := buildEhload(t)
	tests := []struct {
		name string
		args []string
		want string
	}{
		{
			"missing cmds",
			[]string{"-failover-check", "-follower-addr", "x:1"},
			"-primary-cmd and -follower-cmd",
		},
		{
			"primary without wal-dir",
			[]string{"-failover-check", "-follower-addr", "x:1", "-primary-cmd", "srv", "-follower-cmd", "srv -replica-of x"},
			"-wal-dir",
		},
		{
			"primary without repl-sync",
			[]string{"-failover-check", "-follower-addr", "x:1", "-primary-cmd", "srv -wal-dir d", "-follower-cmd", "srv -replica-of x"},
			"-repl-sync",
		},
		{
			"follower without replica-of",
			[]string{"-failover-check", "-follower-addr", "x:1", "-primary-cmd", "srv -wal-dir d -repl-sync", "-follower-cmd", "srv"},
			"-replica-of",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 1 {
				t.Fatalf("args %v: err = %v, want exit 1\noutput: %s", tc.args, err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("args %v: output %q does not mention %q", tc.args, out, tc.want)
			}
		})
	}
}
