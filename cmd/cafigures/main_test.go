package main

import (
	"strings"
	"testing"

	"cachedarrays/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

func TestRejectsUnknownOnly(t *testing.T) {
	// The message must list every valid name.
	clitest.Rejects(t, `unknown figure "nosuch" (valid: `+strings.Join(figures, ",")+")", "-only", "fig2,nosuch")
}

func TestOnlySelectsFigure(t *testing.T) {
	code, stdout, stderr := clitest.Run(t, "-only", " CopyBW")
	if code != 0 || !strings.Contains(stdout, "copy") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
