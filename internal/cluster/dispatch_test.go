package cluster

import (
	"container/heap"
	"reflect"
	"strings"
	"testing"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/memsim"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/units"
)

// scanQueue is the pre-heap dispatcher kept as the reference
// implementation: an O(N) scan over all tenants in index order, strictly
// smaller timestamps displacing the incumbent. Used by RunScanReference
// and the queue-level differential tests; it lives in a _test.go file so
// the non-test build holds one dispatcher.
type scanQueue struct {
	ts []*tenant
}

func newScanQueue(tenants []*tenant) *scanQueue {
	q := &scanQueue{ts: make([]*tenant, len(tenants))}
	copy(q.ts, tenants)
	return q
}

func (q *scanQueue) peek() *tenant {
	best := -1
	for i, t := range q.ts {
		if t.finished {
			continue
		}
		if best < 0 || t.next < q.ts[best].next {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return q.ts[best]
}

// bumped is a no-op: the scan recomputes the minimum from scratch on
// every peek.
func (q *scanQueue) bumped() {}

// remove is a no-op: the scan skips finished tenants.
func (q *scanQueue) remove() {}

// RunScanReference executes the cluster with the pre-heap O(N)
// linear-scan dispatcher kept as the executable reference. It always
// simulates — no cache, no in-flight dedup — so the differential tests
// compare two fresh simulations.
func RunScanReference(cfg Config) (*Result, error) {
	tenants, ecfg, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	return simulateQueued(cfg, tenants, ecfg, newScanQueue(tenants))
}

// TestHeapMatchesScanReference is the tentpole's differential proof at
// the system level: the production heap dispatcher and the pre-heap
// linear-scan reference produce reflect.DeepEqual-identical cluster
// results — every tenant's full engine result, timings, traffic
// attribution and dispatch ordering — across contended mixes, arrival
// ties and fleet-scale tiny-job mixes.
func TestHeapMatchesScanReference(t *testing.T) {
	small := engine.Config{
		FastCapacity: 48 * units.MB,
		SlowCapacity: 1 * units.GB,
		Iterations:   2,
	}
	// The fleet case checks heap == scan identity at fleet size: the
	// benchmark's 128-tenant mix on a deliberately tight fast tier, so
	// tenants genuinely contend and timestamp ties abound.
	fleet := engine.Config{
		FastCapacity: 16 * units.MB,
		SlowCapacity: 2 * units.GB,
		Iterations:   24,
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"contended-mix", Config{Engine: tight, Jobs: Mix(3, 5)}},
		{"bench-mix", Config{Engine: small, Jobs: BenchMix(7, 16)}},
		{"bench-mix-fleet", Config{Engine: fleet, Jobs: BenchMix(42, 128)}},
		{"all-ties", Config{Engine: small, Jobs: []Job{
			{Name: "a", Model: movementHeavy(), Mode: "CA:LM"},
			{Name: "b", Model: movementHeavy(), Mode: "2LM:M"},
			{Name: "c", Model: movementHeavy(), Mode: "CA:LM"},
			{Name: "d", Model: movementHeavy(), Mode: "OS:page"},
		}}},
		{"solo", Config{Engine: small, Jobs: []Job{
			{Name: "only", Model: movementHeavy(), Mode: "CA:LMP", Arrival: 0.5},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Run(tc.cfg)
			if err != nil {
				t.Fatalf("heap run: %v", err)
			}
			want, err := RunScanReference(tc.cfg)
			if err != nil {
				t.Fatalf("scan reference: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("heap dispatch diverged from scan reference\nheap: %+v\nscan: %+v", got, want)
			}
		})
	}
}

// TestQueueSelectionDifferential drives both dispatchQueue
// implementations through an identical synthetic schedule — pseudo-random
// timestamp bumps, deliberate ties, mid-run finishes — and asserts they
// select the same tenant at every step. This is the queue-level half of
// the differential proof: no simulation, just selection order.
func TestQueueSelectionDifferential(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 128} {
		mk := func() []*tenant {
			ts := make([]*tenant, n)
			for i := range ts {
				// Few distinct start slots: ties abound.
				ts[i] = &tenant{idx: i, next: float64(i % 3)}
			}
			return ts
		}
		ha, sa := mk(), mk()
		h, s := newTenantHeap(ha), newScanQueue(sa)
		// Deterministic bump schedule shared by both sides; a small prime
		// modulus keeps reproducing ties mid-run.
		step := 0
		for {
			ht, st := h.peek(), s.peek()
			switch {
			case ht == nil && st == nil:
				return
			case ht == nil || st == nil:
				t.Fatalf("n=%d step %d: one queue empty (heap=%v scan=%v)", n, step, ht, st)
			case ht.idx != st.idx:
				t.Fatalf("n=%d step %d: heap picked idx %d (next=%g), scan picked idx %d (next=%g)",
					n, step, ht.idx, ht.next, st.idx, st.next)
			}
			step++
			if step%5 == 4 || ht.steps >= 6 {
				ht.finished = true
				st.finished = true
				h.remove()
				s.remove()
				continue
			}
			bump := float64((step*7+ht.idx*13)%11) * 0.25
			ht.next += bump
			ht.steps++
			st.next += bump
			st.steps++
			h.bumped()
			s.bumped()
		}
	}
}

// TestDispatchQueueZeroAllocs pins the dispatch hot path's allocation
// budget at zero: peek, timestamp bump + sift (bumped) and finish (remove)
// on a pre-sized heap never allocate. A regression here — a closure, a
// snapshot, interface boxing — would show up as a fractional alloc count.
func TestDispatchQueueZeroAllocs(t *testing.T) {
	const n = 64
	tenants := make([]*tenant, n)
	for i := range tenants {
		tenants[i] = &tenant{idx: i}
	}
	backing := make([]*tenant, n)
	h := &tenantHeap{ts: backing}
	allocs := testing.AllocsPerRun(100, func() {
		h.ts = backing[:n]
		copy(h.ts, tenants)
		for _, tn := range tenants {
			tn.steps = 0
			tn.next = float64(tn.idx % 4) // shared slots: tie-heavy
			tn.finished = false
		}
		heap.Init(h)
		for {
			tn := h.peek()
			if tn == nil {
				break
			}
			tn.steps++
			if tn.steps >= 5 {
				tn.finished = true
				h.remove()
				continue
			}
			tn.next += 1 + float64(tn.idx%3)
			h.bumped()
		}
	})
	if allocs != 0 {
		t.Fatalf("dispatch queue hot path allocated %g allocs/run, want 0", allocs)
	}
}

// watchQueue runs watch before every dispatch decision of the queue it
// wraps: the seam through which a test looks at the platform between
// events.
type watchQueue struct {
	dispatchQueue
	watch func()
}

func (q watchQueue) peek() *tenant {
	q.watch()
	return q.dispatchQueue.peek()
}

// dispatchWatched runs cfg through the production dispatcher on a fresh
// platform, calling watch with the platform and the tenants before every
// dispatch decision (the last one finds every tenant finished).
func dispatchWatched(t *testing.T, cfg Config, watch func(p *memsim.Platform, tenants []*tenant)) []*tenant {
	t.Helper()
	tenants, ecfg, err := prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := engine.NewPlatform(ecfg)
	q := watchQueue{newTenantHeap(tenants), func() { watch(p, tenants) }}
	if err := dispatch(tenants, ecfg, p, nil, q); err != nil {
		t.Fatal(err)
	}
	return tenants
}

// live counts the tenants whose stepper exists and has not finished.
func live(tenants []*tenant) (n int) {
	for _, t := range tenants {
		if t.st != nil && !t.finished {
			n++
		}
	}
	return n
}

// TestUnmeteredFleetRegistersNothing: an uninstrumented BenchMix run —
// whose mix does draw the adaptive CA:OG and CA:TG modes — has no clock
// observer at any dispatch decision, so a tenant's advance costs the same
// however many tenants share the platform. A metered run of the same mix
// carries exactly its own registries: one per live tenant plus the
// cluster's, and a tenant's leaves when the tenant finishes.
func TestUnmeteredFleetRegistersNothing(t *testing.T) {
	cfg := Config{
		Engine: engine.Config{FastCapacity: 16 * units.MB, SlowCapacity: 2 * units.GB, Iterations: 2},
		Jobs:   BenchMix(42, 32),
	}
	adaptive := 0
	for _, j := range cfg.Jobs {
		if j.Mode == "CA:OG" || j.Mode == "CA:TG" {
			adaptive++
		}
	}
	if adaptive == 0 {
		t.Fatal("mix draws no adaptive tenant; pick another seed")
	}
	decisions := 0
	dispatchWatched(t, cfg, func(p *memsim.Platform, _ []*tenant) {
		decisions++
		if n := p.Clock.Observers(); n != 0 {
			t.Fatalf("unmetered fleet has %d clock observers at dispatch decision %d", n, decisions)
		}
	})
	if decisions == 0 {
		t.Fatal("the watch never ran")
	}

	cfg.Engine.Metrics = metrics.New(0)
	cfg.TenantMetrics = func(string) *metrics.Registry { return metrics.New(0) }
	peak := 0
	dispatchWatched(t, cfg, func(p *memsim.Platform, tenants []*tenant) {
		n, want := p.Clock.Observers(), live(tenants)+1
		if n != want {
			t.Fatalf("metered fleet has %d clock observers, want one per live tenant plus the cluster's (%d)", n, want)
		}
		peak = max(peak, n)
	})
	if peak < 3 || peak > len(cfg.Jobs)+1 {
		t.Errorf("metered fleet peaked at %d observers; want several tenants live at once and at most %d",
			peak, len(cfg.Jobs)+1)
	}
}

// TestFinishedTenantLeavesTheClock is the regression test for the
// sampled-after-Flush bug: nothing used to detach at Finish on a shared
// platform, so every later advance of any tenant still ticked a finished
// tenant's registry (its series ran on past its Flush row) and audited its
// retired manager. With staggered finishes, every tenant's series must end
// at that tenant's Finish, and at every dispatch decision the clock carries
// only the live tenants' observers.
func TestFinishedTenantLeavesTheClock(t *testing.T) {
	regs := map[string]*metrics.Registry{}
	cfg := Config{
		Engine: engine.Config{
			FastCapacity: 64 * units.MB, SlowCapacity: 4 * units.GB, Iterations: 3,
			CheckEveryAdvance: true, Metrics: metrics.New(1e-4),
		},
		Jobs: Mix(1, 8),
		TenantMetrics: func(label string) *metrics.Registry {
			regs[label] = metrics.New(1e-4)
			return regs[label]
		},
	}
	tenants := dispatchWatched(t, cfg, func(p *memsim.Platform, tenants []*tenant) {
		want := 1 // the cluster's registry
		for _, tn := range tenants {
			if tn.st == nil || tn.finished {
				continue
			}
			want++ // the tenant's registry
			if strings.HasPrefix(tn.mode, "CA:") {
				want++ // and, on the CachedArrays backend, its checker
			}
		}
		if n := p.Clock.Observers(); n != want {
			t.Fatalf("t=%g: %d clock observers, want %d (live tenants' only)", p.Clock.Now(), n, want)
		}
	})
	makespan, early, checked := 0.0, 0, 0
	for _, tn := range tenants {
		makespan = max(makespan, tn.finish)
	}
	for _, tn := range tenants {
		if tn.finish < makespan {
			early++
		}
		if tn.result.InvariantChecks > 0 {
			checked++
		}
		sum := regs[tn.label].Summarize()
		if sum.Samples < 2 {
			t.Errorf("%s: %d samples: too few to show a tail", tn.label, sum.Samples)
		}
		if sum.End != tn.finish {
			t.Errorf("%s: series ends at t=%g, tenant finished (and flushed) at t=%g", tn.label, sum.End, tn.finish)
		}
	}
	if early < 2 || checked < 2 {
		t.Fatalf("%d tenants finish before the makespan, %d were audited: the mix does not exercise the bug", early, checked)
	}
}
