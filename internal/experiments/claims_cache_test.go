package experiments

import (
	"reflect"
	"sync/atomic"
	"testing"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/models"
	"cachedarrays/internal/sched"
)

// TestClaimsServedFromWarmCache: everything CheckClaims computes goes
// through its scheduler — the matrix, its own Fig. 3 / Fig. 7 runs and
// the DLRM experiment — so a second check over a filled directory
// simulates nothing and scores the same. The claims' own six runs are
// checks, not figure cells: the Instrument hook sees the matrix only.
func TestClaimsServedFromWarmCache(t *testing.T) {
	dir := t.TempDir()
	check := func() ([]Claim, *sched.Scheduler, sched.CacheStats, int64) {
		t.Helper()
		cache, err := sched.OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		var instrumented atomic.Int64
		s := &sched.Scheduler{Workers: 2, Cache: cache}
		claims, err := CheckClaims(Options{Iterations: 2, Scale: 16, Sched: s,
			Instrument: func(string, *engine.Config) func(*engine.Result) error {
				instrumented.Add(1)
				return nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		return claims, s, cache.Stats(), instrumented.Load()
	}
	matrixCells := int64(len(ModeNames) * len(models.PaperLargeModels()))

	cold, s1, st1, inst1 := check()
	// The two Fig. 3 runs are the matrix's ResNet 2LM cells plus heap
	// sampling, a different config, so all six simulate; DLRM is the +1.
	if want := matrixCells + 6 + 1; s1.Simulations() != want {
		t.Errorf("cold check simulated %d, want %d", s1.Simulations(), want)
	}
	if inst1 != matrixCells {
		t.Errorf("Instrument saw %d cells, want the matrix's %d", inst1, matrixCells)
	}

	warm, s2, st2, _ := check()
	if s2.Simulations() != 0 {
		t.Errorf("warm check simulated %d runs, want 0", s2.Simulations())
	}
	if st2.Misses != 0 || st2.Corrupt != 0 || st2.Hits != st1.Misses {
		t.Errorf("warm stats %+v after cold stats %+v: want every cold miss to be a warm hit", st2, st1)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("claims scored from the cache differ from the simulated ones")
	}
}

// TestDLRMResultRoundTrips: DLRM with a scheduler memoizes the
// experiment, so a second scheduler over the same cache directory gets
// the result without simulating, decoded from its disk entry and
// DeepEqual to the computed one — the obligation Scheduler.Memo puts on
// every value it stores.
func TestDLRMResultRoundTrips(t *testing.T) {
	dir := t.TempDir()
	cfg := models.DefaultDLRMConfig()
	want, err := RunDLRM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for pass, wantSims := range []int64{1, 0} {
		cache, err := sched.OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := &sched.Scheduler{Cache: cache}
		got, err := DLRM(Options{Sched: s})
		if err != nil {
			t.Fatal(err)
		}
		if s.Simulations() != wantSims {
			t.Errorf("pass %d computed %d times, want %d", pass, s.Simulations(), wantSims)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pass %d: memoised DLRM result differs from RunDLRM's", pass)
		}
	}
	// A different config is a different key.
	cache, err := sched.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Scheduler{Cache: cache}
	other := cfg
	other.Seed++
	if _, err := memoDLRM(s, other); err != nil {
		t.Fatal(err)
	}
	if s.Simulations() != 1 {
		t.Error("a different seed was served the default config's result")
	}
}
