package sched

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/models"
)

// waitForWaiter returns once some goroutine is parked on an in-flight
// cache entry: blocked in a channel receive whose innermost frame is the
// table walk itself (an in-flight computation blocks deeper, inside its
// compute function). It polls goroutine stacks, so the interleaving the
// table tests need is established without sleeping.
func waitForWaiter(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			head, frames, _ := strings.Cut(g, "\n")
			if strings.Contains(head, "[chan receive") && strings.HasPrefix(frames, "cachedarrays/internal/sched.(*Cache).memo(") {
				return
			}
		}
		runtime.Gosched()
	}
}

// memoOut is one Memo call's returns.
type memoOut struct {
	v   any
	hit bool
	err error
}

// startLeader starts a Memo call on key whose computation blocks until
// release is closed and then returns (v, err). startLeader returns once
// that computation is in flight.
func startLeader(s *Scheduler, key string, release chan struct{}, v any, err error) chan memoOut {
	in, out := make(chan struct{}), make(chan memoOut, 1)
	go func() {
		got, hit, gerr := s.Memo(key, Decode[engine.Result], func() (any, error) {
			close(in)
			<-release
			return v, err
		})
		out <- memoOut{got, hit, gerr}
	}()
	<-in
	return out
}

// TestInFlightEntrySharesResult pins the table's in-flight contract with
// a deterministic interleaving: a follower arriving while the leader
// computes never computes itself, shares the leader's exact pointer and
// counts as a dedup, not a cache hit; a caller after the leader settled
// is a plain hit.
func TestInFlightEntrySharesResult(t *testing.T) {
	cache, err := OpenCache("")
	if err != nil {
		t.Fatal(err)
	}
	s := &Scheduler{Cache: cache}
	want := &engine.Result{Mode: "X"}
	release := make(chan struct{})
	leaderOut := startLeader(s, "k", release, want, nil)

	followerOut := make(chan memoOut, 1)
	go func() {
		v, hit, err := s.Memo("k", Decode[engine.Result], func() (any, error) {
			t.Error("follower computed despite an in-flight leader")
			return nil, nil
		})
		followerOut <- memoOut{v, hit, err}
	}()
	waitForWaiter(t)
	close(release)

	l, f := <-leaderOut, <-followerOut
	if l.err != nil || f.err != nil {
		t.Fatalf("errors: leader %v, follower %v", l.err, f.err)
	}
	if l.hit || !f.hit {
		t.Fatalf("hit flags: leader %v, follower %v; want false, true", l.hit, f.hit)
	}
	if l.v != want || f.v != want {
		t.Fatal("leader and follower do not share the result pointer")
	}
	if s.Simulations() != 1 || s.Dedups() != 1 {
		t.Fatalf("simulations %d, dedups %d; want 1, 1", s.Simulations(), s.Dedups())
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("stats = %+v, want one miss and one store (a dedup is no hit)", st)
	}

	v, hit, err := s.Memo("k", Decode[engine.Result], func() (any, error) {
		t.Error("a settled entry was recomputed")
		return nil, nil
	})
	if err != nil || !hit || v != want || s.Dedups() != 1 || cache.Stats().Hits != 1 {
		t.Fatalf("settled lookup: v=%p hit=%v err=%v dedups=%d stats=%+v", v, hit, err, s.Dedups(), cache.Stats())
	}
}

// TestInFlightEntryFailureIsShared: a leader whose computation fails
// hands the same error to the follower waiting on it, leaves no entry
// behind, and the next caller computes once and stores once.
func TestInFlightEntryFailureIsShared(t *testing.T) {
	cache, err := OpenCache("")
	if err != nil {
		t.Fatal(err)
	}
	s := &Scheduler{Cache: cache}
	boom := fmt.Errorf("boom")
	release := make(chan struct{})
	leaderOut := startLeader(s, "k", release, nil, boom)

	followerOut := make(chan memoOut, 1)
	go func() {
		v, hit, err := s.Memo("k", Decode[engine.Result], func() (any, error) {
			t.Error("follower computed despite an in-flight leader")
			return nil, nil
		})
		followerOut <- memoOut{v, hit, err}
	}()
	waitForWaiter(t)
	close(release)

	l, f := <-leaderOut, <-followerOut
	if l.err != boom || f.err != boom {
		t.Fatalf("errors: leader %v, follower %v; want boom for both", l.err, f.err)
	}
	if l.v != nil || f.v != nil || l.hit || f.hit {
		t.Fatalf("a failed flight returned a value or a hit: leader %+v, follower %+v", l, f)
	}
	if s.Dedups() != 0 {
		t.Fatalf("dedups = %d, want 0: a shared failure serves nothing", s.Dedups())
	}
	cache.mu.Lock()
	_, left := cache.table["k"]
	cache.mu.Unlock()
	if left {
		t.Fatal("the failed entry is still in the table")
	}

	want := &engine.Result{Mode: "Y"}
	calls := 0
	v, hit, err := s.Memo("k", Decode[engine.Result], func() (any, error) { calls++; return want, nil })
	if err != nil || hit || v != want || calls != 1 {
		t.Fatalf("retry: v=%p hit=%v err=%v calls=%d", v, hit, err, calls)
	}
	if st := cache.Stats(); st.Stores != 1 {
		t.Fatalf("stores = %d, want 1", st.Stores)
	}
}

// TestSchedulerSingleFlightStress hammers one Scheduler plus one shared
// disk-backed Cache from many workers with overlapping identical and
// distinct cells (lazily built on the workers). The hard invariant under
// -race: the number of simulations actually executed equals the number
// of distinct keys — every duplicate was served by a settled or an
// in-flight cache entry — and every replica's result is
// DeepEqual-identical to its group's.
func TestSchedulerSingleFlightStress(t *testing.T) {
	const distinct, replicas = 4, 12
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := &Scheduler{Workers: 4 * runtime.GOMAXPROCS(0), Cache: cache}

	var cells []Cell
	for rep := 0; rep < replicas; rep++ {
		for d := 0; d < distinct; d++ {
			cells = append(cells, Cell{
				Name:  fmt.Sprintf("stress-%d-rep%d", d, rep),
				Build: func() (*models.Model, error) { return models.MLP(256, []int{256}, 64, 8), nil },
				Mode:  "CA:LM",
				Cfg:   engine.Config{Iterations: d + 1},
			})
		}
	}
	results, err := s.Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Simulations(); got != distinct {
		t.Fatalf("Simulations() = %d, want %d (one per distinct key)", got, distinct)
	}
	if st := cache.Stats(); st.Stores != distinct {
		t.Fatalf("cache stores = %d, want %d (one writer per key)", st.Stores, distinct)
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("result %d is nil", i)
		}
		group := i % distinct
		if !reflect.DeepEqual(r, results[group]) {
			t.Fatalf("replica %d differs from its group %d result", i, group)
		}
	}
	t.Logf("stress: %d cells, %d simulations, %d dedups, stats %+v",
		len(cells), s.Simulations(), s.Dedups(), cache.Stats())
}

// TestCacheConcurrentPutGet drives the cache directly from many
// goroutines mixing distinct-key writes, same-key overwrites and reads
// — the -race witness that the table's one lock and the atomic stats
// hold.
func TestCacheConcurrentPutGet(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers, keys = 8, 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("%02x-stress-key-%d", k*17%256, k)
				r := &engine.Result{Mode: "CA:LM", IterTime: float64(k)}
				if err := cache.Put(key, r); err != nil {
					t.Error(err)
					return
				}
				got, ok := cache.Get(key)
				if !ok || got.IterTime != float64(k) {
					t.Errorf("key %s: got %+v ok=%v", key, got, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := cache.Stats(); st.Hits != workers*keys || st.Stores != workers*keys {
		t.Fatalf("stats = %+v, want %d hits and stores", st, workers*keys)
	}
}

// TestKeyErrorSurfacedOncePerDistinctError: an un-keyable cacheable cell
// prints one stderr notice per *distinct* error message — repeats of the
// same failure stay quiet instead of spamming per cell, but a different
// key failure later in the session still surfaces instead of being
// swallowed by a process-global once.
func TestKeyErrorSurfacedOncePerDistinctError(t *testing.T) {
	var buf bytes.Buffer
	keyErrMu.Lock()
	oldOut, oldSeen := keyErrOut, keyErrSeen
	keyErrOut, keyErrSeen = &buf, nil
	keyErrMu.Unlock()
	defer func() {
		keyErrMu.Lock()
		keyErrOut, keyErrSeen = oldOut, oldSeen
		keyErrMu.Unlock()
	}()

	warnKeyError(fmt.Errorf("config field Cfg.Widget carries live state"))
	warnKeyError(fmt.Errorf("config field Cfg.Widget carries live state"))
	out := buf.String()
	if !strings.Contains(out, "Cfg.Widget") {
		t.Fatalf("first key error not surfaced: %q", out)
	}
	if n := strings.Count(out, "\n"); n != 1 {
		t.Fatalf("repeated key error surfaced %d times, want once: %q", n, out)
	}

	warnKeyError(fmt.Errorf("config field Cfg.Gadget is unexported"))
	out = buf.String()
	if !strings.Contains(out, "Cfg.Gadget") {
		t.Fatalf("second distinct key error swallowed: %q", out)
	}
	if n := strings.Count(out, "\n"); n != 2 {
		t.Fatalf("got %d warning lines, want 2 (one per distinct error): %q", n, out)
	}
}

// TestBuildErrorFailsCell: a Build error fails the batch wrapped with
// the cell's name, and a Build returning nil is rejected.
func TestBuildErrorFailsCell(t *testing.T) {
	s := &Scheduler{}
	_, err := s.Run([]Cell{{
		Name:  "broken",
		Build: func() (*models.Model, error) { return nil, fmt.Errorf("no such graph") },
		Mode:  "CA:LM",
	}})
	if err == nil || !strings.Contains(err.Error(), "broken:") || !strings.Contains(err.Error(), "no such graph") {
		t.Fatalf("Build error not propagated with cell name: %v", err)
	}
	_, err = s.Run([]Cell{{
		Name:  "nilbuild",
		Build: func() (*models.Model, error) { return nil, nil },
		Mode:  "CA:LM",
	}})
	if err == nil || !strings.Contains(err.Error(), "nil model") {
		t.Fatalf("nil Build result not rejected: %v", err)
	}
	if _, err = s.Run([]Cell{{Name: "empty", Mode: "CA:LM"}}); err == nil {
		t.Fatal("cell with neither Model nor Build accepted")
	}
}
