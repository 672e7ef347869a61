package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"cachedarrays/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

func TestRejectsNegativeJobs(t *testing.T) {
	clitest.Rejects(t, "-jobs must not be negative", "-jobs", "-1")
}

func TestRejectsNegativeIterations(t *testing.T) {
	clitest.Rejects(t, "iterations must not be negative", "-iters", "-2")
}

// TestJSONStdoutIsOneDocument: with -json, stdout is exactly one JSON
// document even when an observer flag makes the session print status
// lines (they go to stderr), and that document is the one an unobserved
// run prints — observers never steer, the metered config aside.
func TestJSONStdoutIsOneDocument(t *testing.T) {
	args := []string{"-jobs", "3", "-seed", "2", "-iters", "2", "-fast", "64MB", "-nobase", "-json"}
	code, bare, stderr := clitest.Run(t, args...)
	if code != 0 {
		t.Fatalf("bare run: exit %d: %s", code, stderr)
	}
	dir := t.TempDir()
	for _, obs := range [][]string{
		{"-metrics-summary", filepath.Join(dir, "m.json")},
		{"-metrics", filepath.Join(dir, "m.csv")},
		{"-trace", filepath.Join(dir, "t.jsonl")},
		{"-listen", "127.0.0.1:0"},
	} {
		code, stdout, stderr := clitest.Run(t, append(args, obs...)...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", obs, code, stderr)
		}
		var doc any
		if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
			t.Fatalf("%v: stdout is not JSON: %v\n%.300s", obs, err, stdout)
		}
		if !strings.Contains(stderr, "->") && !strings.Contains(stderr, "serving on") {
			t.Errorf("%v: status line missing from stderr: %q", obs, stderr)
		}
		if got := stripObserverConfig(stdout); got != stripObserverConfig(bare) {
			t.Errorf("%v: document differs from the unobserved run beyond the observer config lines", obs)
		}
	}
}

// stripObserverConfig drops the recorded Config lines an observer flag
// legitimately changes ("Metrics": the registry, "Trace": the switch).
func stripObserverConfig(doc string) string {
	var keep []string
	for _, line := range strings.Split(doc, "\n") {
		if f := strings.TrimSpace(line); strings.HasPrefix(f, `"Metrics":`) || f == `"Trace": true,` || f == `"Trace": false,` {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}
