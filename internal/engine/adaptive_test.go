package engine

import (
	"fmt"
	"reflect"
	"testing"

	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/policy"
	"cachedarrays/internal/units"
)

// thrashModel builds a synthetic worst case for eager fetching: n
// persistent objects read round-robin with near-zero compute, with the
// working set sized ~2x fast capacity by the caller. Under CA:LMP every
// read force-fetches and evicts the next victim — textbook ping-pong.
func thrashModel(n int, objBytes int64, passes int) *models.Model {
	m := &models.Model{Name: "thrash", BatchSize: 1}
	for i := 0; i < n; i++ {
		m.Tensors = append(m.Tensors, models.Tensor{
			ID: i, Name: fmt.Sprintf("w%d", i), Bytes: objBytes, Kind: models.Weight})
	}
	stats := len(m.Tensors)
	m.Tensors = append(m.Tensors, models.Tensor{
		ID: stats, Name: "stats", Bytes: 64, Kind: models.WeightGrad})
	for p := 0; p < passes; p++ {
		for i := 0; i < n; i++ {
			m.Kernels = append(m.Kernels, models.Kernel{
				Name:   fmt.Sprintf("k%d_%d", p, i),
				Phase:  models.Forward,
				Reads:  []int{i},
				Writes: []int{stats},
				FLOPs:  1e6,
			})
		}
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// thrashCfg holds 4 of the model's 8 objects in fast memory, so the
// round-robin access pattern misses on every read.
func thrashCfg() (*models.Model, Config) {
	return thrashModel(8, 32*units.MB, 12),
		Config{Iterations: 2, FastCapacity: 140 * units.MB, SlowCapacity: 4 * units.GB}
}

// TestThrashGuardDampsPingPong is the headline thrash-guard property: on
// a workload where eager fetching ping-pongs, CA:TG trips, absorbs the
// churn, and beats the static CA:LMP baseline on movement and time.
func TestThrashGuardDampsPingPong(t *testing.T) {
	m, cfg := thrashCfg()
	lmp, err := RunCA(m, policy.CALMP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := RunCAAdaptive(m, AdaptiveTG, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tg.Adaptive.ThrashBackoffs == 0 || tg.Adaptive.SuppressedFetches == 0 {
		t.Fatalf("guard never engaged: %+v", tg.Adaptive)
	}
	if tg.Policy.Prefetches*2 >= lmp.Policy.Prefetches {
		t.Errorf("prefetches %d not halved vs CA:LMP's %d",
			tg.Policy.Prefetches, lmp.Policy.Prefetches)
	}
	if tg.DM.BytesSlowToFast*2 >= lmp.DM.BytesSlowToFast {
		t.Errorf("slow->fast bytes %d not halved vs CA:LMP's %d",
			tg.DM.BytesSlowToFast, lmp.DM.BytesSlowToFast)
	}
	if tg.IterTime >= lmp.IterTime {
		t.Errorf("CA:TG (%.4fs) not faster than CA:LMP (%.4fs) on the thrashing workload",
			tg.IterTime, lmp.IterTime)
	}
}

// TestOnlineGuidanceBeatsStaticBaseline: CA:OG must beat at least one
// static paper mode (CA:0, the hardware-cache-like baseline) while its
// guidance loop demonstrably runs.
func TestOnlineGuidanceBeatsStaticBaseline(t *testing.T) {
	m := models.ResNet(50, 128)
	cfg := Config{Iterations: 2, FastCapacity: 2 * units.GB, SlowCapacity: 64 * units.GB}
	og, err := RunCAAdaptive(m, AdaptiveOG, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunCA(m, policy.CAZero, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if og.Adaptive.Rebalances == 0 {
		t.Fatalf("guidance loop never ran: %+v", og.Adaptive)
	}
	if og.IterTime >= base.IterTime {
		t.Errorf("CA:OG (%.4fs) not faster than CA:0 (%.4fs)", og.IterTime, base.IterTime)
	}
}

// TestAdaptiveInvariants runs every adaptive variant under full invariant
// checking on the thrashing workload.
func TestAdaptiveInvariants(t *testing.T) {
	m, cfg := thrashCfg()
	cfg.CheckInvariants = true
	for _, v := range AdaptiveModes {
		if _, err := RunCAAdaptive(m, v, cfg); err != nil {
			t.Errorf("%s: %v", v, err)
		}
	}
}

// TestAdaptiveDeterministic: adaptive runs must be exactly reproducible —
// the property the scheduler's result cache depends on.
func TestAdaptiveDeterministic(t *testing.T) {
	m, cfg := thrashCfg()
	for _, v := range AdaptiveModes {
		a, err := RunCAAdaptive(m, v, cfg)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		b, err := RunCAAdaptive(m, v, cfg)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two identical runs differ", v)
		}
	}
}

// TestAdaptiveCallerRegistry: when the caller provides a registry, the
// adaptive stack registers its decision counters there and the run is
// sampled as usual.
func TestAdaptiveCallerRegistry(t *testing.T) {
	m, cfg := thrashCfg()
	reg := metrics.New(0)
	cfg.Metrics = reg
	r, err := RunCAAdaptive(m, AdaptiveOGTG, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Samples() == 0 {
		t.Fatal("caller registry never sampled")
	}
	v, ok := reg.Value("guidance_rebalances")
	if !ok {
		t.Fatal("guidance counters not registered in caller registry")
	}
	if int64(v) != r.Adaptive.Rebalances {
		t.Errorf("registry rebalances %v != result %d", v, r.Adaptive.Rebalances)
	}
	if _, ok := reg.Value("thrash_backoffs"); !ok {
		t.Fatal("thrash counters not registered in caller registry")
	}
}

// TestAdaptiveUnknownVariant: the dispatcher rejects unknown names.
func TestAdaptiveUnknownVariant(t *testing.T) {
	m, cfg := thrashCfg()
	if _, err := RunCAAdaptive(m, "CA:BOGUS", cfg); err == nil {
		t.Fatal("unknown variant accepted")
	}
}
