package engine

import (
	"reflect"
	"testing"

	"cachedarrays/internal/alloc"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/units"
)

// TestUnmeteredRunAttachesNoRegistry: in every mode, a run whose caller
// passed no Config.Metrics carries no registry at all. Solo, the clock's
// Metrics slot stays nil from construction to the last step; on a shared
// platform the owner's OnRegistry is never called, so the run adds
// nothing to a cluster's per-advance fan-out. The adaptive modes are the
// ones with something to hide: online guidance steers by the slow tier's
// live utilisation, which it reads off the device, not out of a registry.
func TestUnmeteredRunAttachesNoRegistry(t *testing.T) {
	m := models.ResNet(50, 32)
	cfg := Config{Iterations: 2, FastCapacity: 2 * units.GB, SlowCapacity: 32 * units.GB}
	for _, mode := range Modes {
		t.Run(mode+"/solo", func(t *testing.T) {
			st, err := NewStepper(m, mode, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			clock := st.(*run).p.Clock
			for steps := 0; ; steps++ {
				if clock.Metrics != nil {
					t.Fatalf("Clock.Metrics set after %d steps of an unmetered run", steps)
				}
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
		})
		t.Run(mode+"/shared", func(t *testing.T) {
			p, release := AcquirePlatform(cfg)
			env := &Env{
				Platform:  p,
				FastQuota: alloc.NewQuota(p.Fast.Capacity),
				SlowQuota: alloc.NewQuota(p.Slow.Capacity),
				OnRegistry: func(*metrics.Registry) {
					t.Error("an unmetered run handed the owner a registry to tick")
				},
			}
			st, err := NewStepper(m, mode, cfg, env)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Drive(st); err != nil {
				t.Fatal(err)
			}
			if p.Clock.Metrics != nil {
				t.Error("Clock.Metrics set on the shared platform")
			}
			release()
		})
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
