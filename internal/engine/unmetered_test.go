package engine

import (
	"reflect"
	"testing"

	"cachedarrays/internal/alloc"
	"cachedarrays/internal/memsim"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/units"
)

// stepWatching drives st to completion, calling watch before every step
// and once more before Finish.
func stepWatching(t *testing.T, st Stepper, watch func(steps int)) {
	t.Helper()
	for steps := 0; ; steps++ {
		watch(steps)
		if st.Done() {
			break
		}
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestUnmeteredRunAttachesNoRegistry: in every mode, a run whose caller
// asked for no instrumentation puts nothing on the clock. Solo or on a
// shared platform, the observer count is zero from construction to the
// last step, so the run adds nothing to the cost of anybody's advance. The
// adaptive modes are the ones with something to hide: online guidance
// steers by the slow tier's live utilisation, which it reads off the
// device, not out of a registry.
func TestUnmeteredRunAttachesNoRegistry(t *testing.T) {
	m := models.ResNet(50, 32)
	cfg := Config{Iterations: 2, FastCapacity: 2 * units.GB, SlowCapacity: 32 * units.GB}
	bare := func(t *testing.T, clock *memsim.Clock) func(int) {
		return func(steps int) {
			if n := clock.Observers(); n != 0 {
				t.Fatalf("%d clock observers after %d steps of an uninstrumented run", n, steps)
			}
		}
	}
	for _, mode := range Modes {
		t.Run(mode+"/solo", func(t *testing.T) {
			st, err := NewStepper(m, mode, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			stepWatching(t, st, bare(t, st.(*run).p.Clock))
		})
		t.Run(mode+"/shared", func(t *testing.T) {
			p := NewPlatform(cfg)
			env := &Env{
				Platform:  p,
				FastQuota: alloc.NewQuota(p.Fast.Capacity),
				SlowQuota: alloc.NewQuota(p.Slow.Capacity),
			}
			st, err := NewStepper(m, mode, cfg, env)
			if err != nil {
				t.Fatal(err)
			}
			stepWatching(t, st, bare(t, p.Clock))
			bare(t, p.Clock)(-1) // and Finish attached nothing either
		})
	}
}

// TestFinishDetachesObservers: a run takes what it attached to the clock
// (its registry, its checker) off again at Finish, so on a shared platform
// a neighbour's later advances neither sample nor audit it. The series
// ends at the Flush row and the checker's audit count stays what the
// Result reported.
func TestFinishDetachesObservers(t *testing.T) {
	m := models.ResNet(50, 32)
	cfg := Config{Iterations: 2, FastCapacity: 2 * units.GB, SlowCapacity: 32 * units.GB,
		CheckEveryAdvance: true}
	p := NewPlatform(cfg)
	env := &Env{
		Platform:  p,
		FastQuota: alloc.NewQuota(p.Fast.Capacity),
		SlowQuota: alloc.NewQuota(p.Slow.Capacity),
	}
	build := func() (Stepper, *metrics.Registry) {
		c := cfg
		c.Metrics = metrics.New(0)
		st, err := NewStepper(m, "CA:LM", c, env)
		if err != nil {
			t.Fatal(err)
		}
		return st, c.Metrics
	}
	first, firstReg := build()
	second, _ := build()
	if n := p.Clock.Observers(); n != 4 {
		t.Fatalf("two metered, checked runs attached %d observers, want 4", n)
	}
	res, err := Drive(first)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.Clock.Observers(); n != 2 {
		t.Fatalf("%d observers after the first run finished, want the second run's 2", n)
	}
	chk := first.(*run).b.(*caBackend).chk
	samples, end := firstReg.Samples(), firstReg.Summarize().End
	if res.InvariantChecks == 0 || res.InvariantChecks != chk.Checks() || samples == 0 {
		t.Fatalf("first run: %d checks reported, %d counted, %d samples", res.InvariantChecks, chk.Checks(), samples)
	}
	if end != p.Clock.Now() {
		t.Fatalf("series ends at t=%g, run flushed at t=%g", end, p.Clock.Now())
	}

	if _, err := Drive(second); err != nil { // the neighbour keeps the clock moving
		t.Fatal(err)
	}
	if got := chk.Checks(); got != res.InvariantChecks {
		t.Errorf("finished run's checker audited on: %d checks, had %d at Finish", got, res.InvariantChecks)
	}
	if got := firstReg.Samples(); got != samples {
		t.Errorf("finished run's registry sampled on: %d samples, had %d at Finish", got, samples)
	}
	if n := p.Clock.Observers(); n != 0 {
		t.Errorf("%d observers left after both runs finished", n)
	}
}

// TestGuidanceUnmovedByRegistry: online guidance reads the same
// utilisation whether or not the run is metered — the closure the policy
// holds and the mem_<slow>_bw_util gauge are one expression — so a bare
// CA:OG/CA:OGTG run equals one with a caller registry. The workload must
// reach the throttle, or the utilisation read would be skipped, not
// proven equal.
func TestGuidanceUnmovedByRegistry(t *testing.T) {
	m, cfg := thrashCfg()
	for _, v := range []string{AdaptiveOG, AdaptiveOGTG} {
		bare, err := RunCAAdaptive(m, v, cfg)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if bare.Adaptive.Throttled == 0 {
			t.Fatalf("%s: workload never throttles (%+v): utilisation path not exercised", v, bare.Adaptive)
		}
		metered := cfg
		metered.Metrics = metrics.New(0)
		obs, err := RunCAAdaptive(m, v, metered)
		if err != nil {
			t.Fatalf("%s metered: %v", v, err)
		}
		if metered.Metrics.Samples() == 0 {
			t.Fatalf("%s: caller registry never sampled", v)
		}
		bare.Config, obs.Config = Config{}, Config{}
		if !reflect.DeepEqual(bare, obs) {
			t.Errorf("%s: a caller registry changed the run: adaptive %+v vs %+v, iter %v vs %v",
				v, bare.Adaptive, obs.Adaptive, bare.IterTime, obs.IterTime)
		}
	}
}
