package sched

import (
	"errors"
	"testing"
)

type memoVal struct {
	N int
	S string
}

// TestMemoCachesAndCounts pins Memo's contract on one scheduler: the
// first call computes (sims+1, hit=false), the repeat is served from the
// in-memory cache (no new sim, hit=true), and distinct keys compute
// independently.
func TestMemoCachesAndCounts(t *testing.T) {
	cache, err := OpenCache("")
	if err != nil {
		t.Fatal(err)
	}
	s := &Scheduler{Cache: cache}
	calls := 0
	compute := func() (any, error) {
		calls++
		return &memoVal{N: calls, S: "x"}, nil
	}
	v1, hit, err := s.Memo("memo-a", Decode[memoVal], compute)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first call reported a hit")
	}
	v2, hit, err := s.Memo("memo-a", Decode[memoVal], compute)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("repeat call missed")
	}
	if calls != 1 || s.Simulations() != 1 {
		t.Fatalf("computed %d times (sims=%d), want 1", calls, s.Simulations())
	}
	if v1.(*memoVal) != v2.(*memoVal) {
		t.Fatal("repeat call did not share the settled pointer")
	}
	if _, hit, err = s.Memo("memo-b", Decode[memoVal], compute); err != nil || hit {
		t.Fatalf("distinct key: hit=%v err=%v, want fresh compute", hit, err)
	}
	if calls != 2 {
		t.Fatalf("distinct key computed %d times total, want 2", calls)
	}
}

// TestMemoDiskDecode proves a second scheduler over the same cache
// directory rebuilds the value through the decode callback — the
// cross-process path cluster runs rely on.
func TestMemoDiskDecode(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := &Scheduler{Cache: c1}
	want := &memoVal{N: 42, S: "answer"}
	if _, _, err := s1.Memo("memo-disk", Decode[memoVal], func() (any, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := &Scheduler{Cache: c2}
	v, hit, err := s2.Memo("memo-disk", Decode[memoVal], func() (any, error) {
		t.Fatal("compute ran despite a disk entry")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("disk entry missed")
	}
	if got := v.(*memoVal); *got != *want {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

// TestMemoNilCache pins that a cache-less scheduler still works: every
// settled call recomputes, errors pass through, and nothing panics.
func TestMemoNilCache(t *testing.T) {
	s := &Scheduler{}
	calls := 0
	compute := func() (any, error) {
		calls++
		return &memoVal{N: calls}, nil
	}
	for i := 1; i <= 2; i++ {
		v, hit, err := s.Memo("memo-nocache", Decode[memoVal], compute)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatalf("call %d: hit without a cache", i)
		}
		if v.(*memoVal).N != i {
			t.Fatalf("call %d returned %+v", i, v)
		}
	}
}

// TestMemoError pins error propagation: a failing compute surfaces its
// error, stores nothing, and the next call retries.
func TestMemoError(t *testing.T) {
	cache, err := OpenCache("")
	if err != nil {
		t.Fatal(err)
	}
	s := &Scheduler{Cache: cache}
	boom := errors.New("boom")
	if _, _, err := s.Memo("memo-err", Decode[memoVal], func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if st := cache.Stats(); st.Stores != 0 {
		t.Fatalf("failed compute stored %d entries", st.Stores)
	}
	v, hit, err := s.Memo("memo-err", Decode[memoVal], func() (any, error) { return &memoVal{N: 7}, nil })
	if err != nil || hit {
		t.Fatalf("retry: hit=%v err=%v", hit, err)
	}
	if v.(*memoVal).N != 7 {
		t.Fatalf("retry returned %+v", v)
	}
}
