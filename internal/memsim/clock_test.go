package memsim_test

import (
	"slices"
	"testing"

	"cachedarrays/internal/dm"
	"cachedarrays/internal/invariants"
	"cachedarrays/internal/memsim"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/units"
)

// probe is an observer that logs its firings into a shared journal, keeps
// what the last one was told, and optionally edits the observer list from
// inside OnAdvance.
type probe struct {
	name    string
	journal *[]string
	now, dt float64
	during  func()
}

func (p *probe) OnAdvance(now, dt float64) {
	*p.journal = append(*p.journal, p.name)
	p.now, p.dt = now, dt
	if p.during != nil {
		p.during()
	}
}

// TestObserversFireOncePerAdvanceInAttachmentOrder is the clock's core
// contract: every observer hears every advance exactly once, after the
// observers attached before it, with the post-advance time and the step.
func TestObserversFireOncePerAdvanceInAttachmentOrder(t *testing.T) {
	var c memsim.Clock
	var journal []string
	last := &probe{name: "c", journal: &journal}
	c.Observe(&probe{name: "a", journal: &journal})
	c.Observe(&probe{name: "b", journal: &journal})
	c.Observe(last)
	if c.Observers() != 3 {
		t.Fatalf("Observers() = %d, want 3", c.Observers())
	}
	c.Advance(0.25)
	c.Advance(0.5)
	if want := []string{"a", "b", "c", "a", "b", "c"}; !slices.Equal(journal, want) {
		t.Fatalf("firing order %v, want %v", journal, want)
	}
	if last.now != 0.75 || last.dt != 0.5 {
		t.Fatalf("observer was told (now %v, dt %v), want the time after the advance and the step (0.75, 0.5)",
			last.now, last.dt)
	}
}

// TestManyObserversOfOneTypeShareAClock is the last-writer-wins hazard the
// three single-value slots had: a second registry (or checker) attached to
// a clock used to silently replace the first. Two of each, plus nothing
// else, must all be driven by the same advances.
func TestManyObserversOfOneTypeShareAClock(t *testing.T) {
	p := memsim.NewPlatform(memsim.PlatformConfig{
		FastCapacity: units.MB, SlowCapacity: 4 * units.MB, CopyThreads: 2,
	})
	regs := []*metrics.Registry{metrics.New(1e-7), metrics.New(1e-7)}
	var chks []*invariants.Checker
	for _, reg := range regs {
		reg.Gauge("g", func() float64 { return 1 })
		p.Clock.Observe(reg)
		chk := invariants.New(dm.New(p), p)
		p.Clock.Observe(chk)
		chks = append(chks, chk)
	}
	if p.Clock.Observers() != 4 {
		t.Fatalf("Observers() = %d, want 4", p.Clock.Observers())
	}
	const advances = 5
	for i := 0; i < advances; i++ {
		p.Clock.Advance(1e-6) // every advance crosses a 1e-7 sampling boundary
	}
	for i := range regs {
		if got := regs[i].Samples(); got != advances {
			t.Errorf("registry %d sampled %d times over %d advances", i, got, advances)
		}
		if got := chks[i].Checks(); got != advances {
			t.Errorf("checker %d audited %d times over %d advances", i, got, advances)
		}
		if err := chks[i].Err(); err != nil {
			t.Errorf("checker %d: %v", i, err)
		}
	}
}

// TestUnobserve: removing an observer keeps the others in order, removing
// one that is not attached (never was, or already removed) changes nothing.
func TestUnobserve(t *testing.T) {
	var c memsim.Clock
	var journal []string
	a := &probe{name: "a", journal: &journal}
	b := &probe{name: "b", journal: &journal}
	d := &probe{name: "d", journal: &journal}
	stranger := &probe{name: "stranger", journal: &journal}

	c.Unobserve(stranger) // empty list
	c.Observe(a)
	c.Observe(b)
	c.Observe(d)
	c.Unobserve(stranger)
	if c.Observers() != 3 {
		t.Fatalf("Unobserve of an absent observer changed the count to %d", c.Observers())
	}
	c.Unobserve(b)
	c.Unobserve(b) // already gone
	c.Advance(1)
	if want := []string{"a", "d"}; !slices.Equal(journal, want) {
		t.Fatalf("after removing b the clock fired %v, want %v", journal, want)
	}
	c.Unobserve(a)
	c.Unobserve(d)
	if c.Observers() != 0 {
		t.Fatalf("%d observers left after removing all", c.Observers())
	}
	c.Advance(1) // must not fire anything
	if len(journal) != 2 {
		t.Fatalf("an unobserved clock fired: %v", journal)
	}
}

// TestObserveDuringAdvanceIsDeferred documents what editing the list from
// inside OnAdvance does: it is deferred. The advance in progress reaches
// exactly the observers it started with — one removed mid-advance still
// hears it, one added mid-advance does not — and the edit holds from the
// next advance on.
func TestObserveDuringAdvanceIsDeferred(t *testing.T) {
	var c memsim.Clock
	var journal []string
	late := &probe{name: "late", journal: &journal}
	victim := &probe{name: "victim", journal: &journal}
	editor := &probe{name: "editor", journal: &journal}
	editor.during = func() {
		c.Unobserve(victim) // attached after the editor: not yet reached
		c.Observe(late)
		editor.during = nil
	}
	c.Observe(editor)
	c.Observe(victim)

	c.Advance(1)
	if want := []string{"editor", "victim"}; !slices.Equal(journal, want) {
		t.Fatalf("advance during which the list was edited fired %v, want %v", journal, want)
	}
	journal = journal[:0]
	c.Advance(1)
	if want := []string{"editor", "late"}; !slices.Equal(journal, want) {
		t.Fatalf("advance after the edit fired %v, want %v", journal, want)
	}
}
