package main

import (
	"strings"
	"testing"

	"cachedarrays/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

func TestRejectsNegativeBudget(t *testing.T) {
	clitest.Rejects(t, "negative", "-budgets", "-5GB")
}

func TestRejectsNegativeIterations(t *testing.T) {
	clitest.Rejects(t, "iterations must not be negative", "-iters", "-1")
}

// TestQuickSweep: a two-point sweep at 1/64 batch prints the Figure 7
// table with one row per network and budget.
func TestQuickSweep(t *testing.T) {
	code, stdout, stderr := clitest.Run(t, "-iters", "1", "-scale", "64", "-budgets", "30GB,0")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "== Fig. 7") || strings.Count(stdout, "30.0 ") != 3 {
		t.Fatalf("no Figure 7 table with three 30 GB rows:\n%s", stdout)
	}
}
