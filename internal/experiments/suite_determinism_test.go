package experiments

import (
	"testing"

	"cachedarrays/internal/sched"
)

// TestSuiteCSVDeterminism is the suite-throughput acceptance test: the
// same figure produced serially, in parallel, and from a warm result
// cache must be byte-identical CSV. Any scheduler ordering bug, pooled-
// platform state leak or cache round-trip loss shows up here as a byte
// diff.
func TestSuiteCSVDeterminism(t *testing.T) {
	fig7 := func(s *sched.Scheduler) string {
		t.Helper()
		tab, err := Fig7(Options{Iterations: 2, Scale: 8, Sched: s}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tab.CSV()
	}

	serial := fig7(&sched.Scheduler{Workers: 1})
	parallel := fig7(&sched.Scheduler{Workers: 8})
	if serial != parallel {
		t.Fatal("parallel CSV differs from serial CSV")
	}

	dir := t.TempDir()
	coldCache, err := sched.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := fig7(&sched.Scheduler{Workers: 8, Cache: coldCache})
	if cold != serial {
		t.Fatal("cache-populating CSV differs from serial CSV")
	}
	// Fresh Cache over the same directory: every cell must come off disk.
	warmCache, err := sched.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := fig7(&sched.Scheduler{Workers: 8, Cache: warmCache})
	if st := warmCache.Stats(); st.Misses != 0 || st.Hits == 0 {
		t.Fatalf("warm pass simulated instead of hitting the cache: %+v", st)
	}
	if warm != serial {
		t.Fatal("warm-cached CSV differs from serial CSV")
	}
}

// TestMatrixSharedSchedulerCache: the full mode matrix run twice through
// one scheduler simulates each cell exactly once — the cross-figure
// dedup the suite runner relies on.
func TestMatrixSharedSchedulerCache(t *testing.T) {
	cache, err := sched.OpenCache("")
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Scheduler{Workers: 4, Cache: cache}
	opts := Options{Iterations: 2, Scale: 64, Sched: s}
	m1, err := RunMatrix(opts)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := RunMatrix(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	cells := len(ModeNames) * len(m1.Models)
	if int(st.Misses) != cells || int(st.Hits) != cells {
		t.Fatalf("stats = %+v, want %d misses then %d hits", st, cells, cells)
	}
	for cell, r1 := range m1.Results {
		if m2.Results[cell].IterTime != r1.IterTime {
			t.Fatalf("cell %v differs across cached reruns", cell)
		}
	}
}
