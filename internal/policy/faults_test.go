package policy

import (
	"errors"
	"testing"

	"cachedarrays/internal/dm"
	"cachedarrays/internal/faults"
	"cachedarrays/internal/memsim"
)

// faultSetup builds a small CA:LMP stack with an optional fault schedule
// threaded through every layer, mirroring the engine's wiring.
func faultSetup(t *testing.T, sched *faults.Schedule) (*memsim.Platform, *dm.Manager, *Tiered, *faults.Injector) {
	t.Helper()
	p := memsim.NewPlatform(memsim.PlatformConfig{
		FastCapacity: 1 << 20, SlowCapacity: 4 << 20, CopyThreads: 4,
	})
	m := dm.New(p)
	var inj *faults.Injector
	if sched != nil {
		inj = faults.New(*sched, p.Clock.Now)
		p.InjectFaults(inj)
		m.SetFaults(inj)
	}
	pol := NewTiered(m, CALMP, nil)
	return p, m, pol, inj
}

// placement is an object's observable final position: which tier its
// primary lives on and at which heap offset.
type placement struct {
	class  dm.Class
	offset int64
}

// scriptedWorkload drives a fixed hint sequence that exercises fast-tier
// pressure, forced evictions, re-fetches and retires, and returns the
// final placement of every surviving object in creation order.
func scriptedWorkload(t *testing.T, pol *Tiered, m *dm.Manager) []placement {
	t.Helper()
	const size = 128 << 10 // 8 objects fill the 1 MiB fast tier
	var objs []*dm.Object
	for i := 0; i < 6; i++ {
		o, err := pol.NewObject(size)
		if err != nil {
			t.Fatalf("NewObject %d: %v", i, err)
		}
		pol.WillWrite(o)
		objs = append(objs, o)
	}
	for _, o := range objs[:4] {
		pol.Archive(o)
	}
	for i := 0; i < 6; i++ { // exceeds fast capacity: forces evictions
		o, err := pol.NewObject(size)
		if err != nil {
			t.Fatalf("NewObject %d: %v", 6+i, err)
		}
		pol.WillWrite(o)
		objs = append(objs, o)
	}
	pol.WillRead(objs[0]) // fetch an evicted object back up
	pol.Retire(objs[5])
	pol.Retire(objs[7])
	if err := pol.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var out []placement
	for _, o := range objs {
		if o.Retired() {
			continue
		}
		pr := m.GetPrimary(o)
		out = append(out, placement{pr.Class(), pr.Offset()})
	}
	return out
}

// TestFaultlessInjectorPlacementIdentical: an injector with no episodes is
// wired through every layer and must not perturb anything observable.
func TestFaultlessInjectorPlacementIdentical(t *testing.T) {
	p1, m1, pol1, _ := faultSetup(t, nil)
	base := scriptedWorkload(t, pol1, m1)
	p2, m2, pol2, inj := faultSetup(t, &faults.Schedule{Seed: 99})
	got := scriptedWorkload(t, pol2, m2)

	if len(base) != len(got) {
		t.Fatalf("object counts diverged: %d vs %d", len(base), len(got))
	}
	for i := range base {
		if base[i] != got[i] {
			t.Fatalf("object %d placement diverged: %+v vs %+v", i, base[i], got[i])
		}
	}
	if p1.Clock.Now() != p2.Clock.Now() {
		t.Fatalf("virtual time diverged: %v vs %v", p1.Clock.Now(), p2.Clock.Now())
	}
	if pol1.Stats() != pol2.Stats() {
		t.Fatalf("policy stats diverged:\n%+v\n%+v", pol1.Stats(), pol2.Stats())
	}
	if m1.Stats() != m2.Stats() {
		t.Fatalf("dm stats diverged:\n%+v\n%+v", m1.Stats(), m2.Stats())
	}
	if inj.Stats().Total() != 0 {
		t.Fatalf("episode-free injector fired: %+v", inj.Stats())
	}
}

// TestTransientAllocFaultConvergesToSamePlacement: an alloc-fail episode
// shorter than the manager's retry budget delays the run in virtual time
// but must converge to exactly the placement of the fault-free run.
func TestTransientAllocFaultConvergesToSamePlacement(t *testing.T) {
	_, m1, pol1, _ := faultSetup(t, nil)
	base := scriptedWorkload(t, pol1, m1)

	// The window [0, 200µs) always fails fast-tier allocations; the
	// bounded backoff (50+100+200 µs) walks the clock out of the window,
	// so the first allocation succeeds on the third retry.
	_, m2, pol2, inj := faultSetup(t, &faults.Schedule{Seed: 1, Episodes: []faults.Episode{
		{Kind: faults.AllocFail, Target: "fast", T0: 0, T1: 200e-6},
	}})
	got := scriptedWorkload(t, pol2, m2)

	if len(base) != len(got) {
		t.Fatalf("object counts diverged: %d vs %d", len(base), len(got))
	}
	for i := range base {
		if base[i] != got[i] {
			t.Fatalf("object %d placement diverged: %+v vs %+v", i, base[i], got[i])
		}
	}
	if m2.Stats().AllocRetries == 0 || inj.Stats().AllocFailures == 0 {
		t.Fatalf("fault never fired: dm %+v, injector %+v", m2.Stats(), inj.Stats())
	}
	if pol2.Stats().FallbackAllocs != 0 {
		t.Fatalf("transient fault caused %d fallbacks; retries should have absorbed it",
			pol2.Stats().FallbackAllocs)
	}
	// Only the retry accounting may differ between the two runs.
	s1, s2 := m1.Stats(), m2.Stats()
	s2.AllocRetries, s2.CopyRetries = 0, 0
	if s1 != s2 {
		t.Fatalf("dm stats diverged beyond retries:\n%+v\n%+v", s1, s2)
	}
}

// TestPersistentAllocFaultFallsBackToSlow: when the fault outlives the
// retry budget, NewObject degrades to slow-tier placement instead of
// failing, and the decision is counted.
func TestPersistentAllocFaultFallsBackToSlow(t *testing.T) {
	_, m, pol, _ := faultSetup(t, &faults.Schedule{Episodes: []faults.Episode{
		{Kind: faults.AllocFail, Target: "fast", T0: 0}, // open-ended, always
	}})
	o, err := pol.NewObject(64 << 10)
	if err != nil {
		t.Fatalf("NewObject under persistent fault: %v", err)
	}
	if got := m.GetPrimary(o).Class(); got != dm.Slow {
		t.Fatalf("object placed on %v, want slow-tier fallback", got)
	}
	if pol.Stats().FallbackAllocs != 1 || pol.Stats().SlowAllocs != 1 {
		t.Fatalf("fallback not recorded: %+v", pol.Stats())
	}
	if err := pol.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistentCopyFaultDegradesGracefully: a copy engine that errors
// past the retry budget must abandon prefetches (object served in place,
// fresh region released) and abandon evictions (object stays in fast, no
// leak) — never panic, never corrupt state.
func TestPersistentCopyFaultDegradesGracefully(t *testing.T) {
	_, m, pol, _ := faultSetup(t, &faults.Schedule{Episodes: []faults.Episode{
		{Kind: faults.CopyError, T0: 0}, // every copy fails, forever
	}})
	// Born in fast (no copy needed), dirtied, then evict: the writeback
	// copy fails and the eviction is abandoned.
	o, err := pol.NewObject(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	pol.WillWrite(o)
	err = pol.Evict(o)
	if !errors.Is(err, dm.ErrFaultInjected) {
		t.Fatalf("Evict = %v, want ErrFaultInjected", err)
	}
	if got := m.GetPrimary(o).Class(); got != dm.Fast {
		t.Fatalf("abandoned eviction moved the object to %v", got)
	}
	if m.Stats().CopyRetries == 0 {
		t.Fatal("copy fault never retried")
	}
	if err := pol.CheckInvariants(); err != nil {
		t.Fatalf("abandoned eviction corrupted state: %v", err)
	}

	// An object born in slow: the fetch-up copy fails, so the prefetch
	// must report failure and serve the object in place.
	y, err := m.NewObject(64<<10, dm.Slow)
	if err != nil {
		t.Fatal(err)
	}
	before := pol.Stats().FetchFailures
	if pol.Prefetch(y, true) {
		t.Fatal("Prefetch succeeded despite a permanently failing copy engine")
	}
	if pol.Stats().FetchFailures != before+1 {
		t.Fatalf("fetch failure not counted: %+v", pol.Stats())
	}
	if got := m.GetPrimary(y).Class(); got != dm.Slow {
		t.Fatalf("failed prefetch left the primary on %v", got)
	}
	if err := pol.CheckInvariants(); err != nil {
		t.Fatalf("failed prefetch corrupted state: %v", err)
	}
}
