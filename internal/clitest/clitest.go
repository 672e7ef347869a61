// Package clitest tests a command whose main parses the process flags
// and exits: it re-runs the command's own test binary as a child process
// that calls main, so a test observes the real exit code and streams.
// Only _test.go files import it.
package clitest

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// childEnv marks the child process. It is set and read only here; no
// shipped binary consults it.
const childEnv = "CACHEDARRAYS_CLITEST_CHILD"

// Main is the command's TestMain: the child runs main on its arguments,
// the parent runs the tests.
func Main(m *testing.M, main func()) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run executes the command with args and returns its exit code and
// captured streams.
func Run(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	return Start(t, args...)()
}

// Start launches the command with args and returns the function that
// waits for it and reports what Run reports; a test starts several
// before waiting for any to have the processes run side by side.
func Start(t *testing.T, args ...string) (wait func() (code int, stdout, stderr string)) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %v: %v", args, err)
	}
	return func() (int, string, string) {
		t.Helper()
		var exit *exec.ExitError
		if err := cmd.Wait(); err != nil && !errors.As(err, &exit) {
			t.Fatalf("running %v: %v", args, err)
		}
		return cmd.ProcessState.ExitCode(), out.String(), errOut.String()
	}
}

// Rejects asserts the command refuses args the way every command reports
// bad input: exit code 1 and exactly one stderr line, containing want —
// so no panic and no goroutine dump.
func Rejects(t *testing.T, want string, args ...string) {
	t.Helper()
	code, _, stderr := Run(t, args...)
	if code != 1 {
		t.Errorf("%v: exit %d, want 1 (stderr: %s)", args, code, stderr)
	}
	if strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, want) {
		t.Errorf("%v: stderr is not one line containing %q:\n%s", args, want, stderr)
	}
}
