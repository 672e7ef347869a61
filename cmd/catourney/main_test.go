package main

import (
	"strings"
	"testing"

	"cachedarrays/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestRejectsNonFiniteFault: a fault variant whose spec the injector
// cannot run fails the tournament before any cell, in one line.
func TestRejectsNonFiniteFault(t *testing.T) {
	clitest.Rejects(t, "factor outside (0,1]",
		"-modes", "CA:LM", "-scale", "64", "-nocluster", "-fault", "nan=bw:{slow}:t0=0,factor=NaN")
}

func TestRejectsNegativeIterations(t *testing.T) {
	clitest.Rejects(t, "iterations must not be negative",
		"-modes", "CA:LM", "-scale", "64", "-nocluster", "-iters", "-1")
}

// TestQuickTournament: one mode at 1/64 batch, clean runs only, prints
// the ranking with that mode first.
func TestQuickTournament(t *testing.T) {
	code, stdout, stderr := clitest.Run(t, "-modes", "CA:LM", "-scale", "64", "-iters", "1", "-nocluster", "-nofaults")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "== Policy tournament — ranked") || !strings.Contains(stdout, "1     CA:LM") {
		t.Fatalf("no ranking with CA:LM first:\n%s", stdout)
	}
}
