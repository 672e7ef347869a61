package main

import (
	"os"
	"regexp"
	"testing"

	"cachedarrays/internal/clitest"
	"cachedarrays/internal/experiments"
	"cachedarrays/internal/sched"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestCacheServesWhatCafiguresStored: `cafigures -cache d && cacheck
// -cache d` simulates nothing the second time. The first command is
// played by the drivers cafigures runs that cacheck's runs coincide with
// (the matrix, Fig. 3, Fig. 7 and its async extension), at cafigures'
// defaults; cacheck then runs as a child process over the filled
// directory. Every batch summary must report zero simulations, and the
// table must be the committed one, byte for byte.
func TestCacheServesWhatCafiguresStored(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale fill skipped in -short mode")
	}
	dir := t.TempDir()
	cache, err := sched.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := experiments.Options{Iterations: 4, Scale: 1, Sched: &sched.Scheduler{Workers: 2, Cache: cache}}
	if _, err := experiments.RunMatrix(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.Fig3(opts, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.Fig7(opts, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.Fig7Async(opts, nil); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := clitest.Run(t, "-cache", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	summaries := regexp.MustCompile(`(\d+) cache hits, (\d+) simulated`).FindAllStringSubmatch(stderr, -1)
	if len(summaries) != 2 {
		t.Fatalf("want two batch summaries (the matrix, the claims' own runs), got %d in:\n%s", len(summaries), stderr)
	}
	for _, m := range summaries {
		if m[2] != "0" {
			t.Errorf("a batch simulated over a filled cache: %q", m[0])
		}
	}
	want, err := os.ReadFile("../../results/claims.txt")
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("claims table differs from results/claims.txt:\n%s", stdout)
	}
}
