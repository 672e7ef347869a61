package policy

import (
	"testing"

	"cachedarrays/internal/dm"
)

// TestOnlineGuidancePromotesHot: a slow-resident object accessed hot
// under CA:LM (no fetch-on-read) stays put under the static policy but is
// promoted into free fast memory at the next guidance interval.
func TestOnlineGuidancePromotesHot(t *testing.T) {
	p, m, pol, _ := setup(t, CALM, 1_000_000, 1_000_000)
	og := NewOnlineGuidance(pol, GuidanceConfig{}, p.Clock.Now, nil)
	o, _ := m.NewObject(1000, dm.Slow)
	for i := 0; i < 3; i++ {
		og.WillRead(o)
	}
	if m.In(m.GetPrimary(o), dm.Fast) {
		t.Fatal("CA:LM fetched on will_read before any guidance interval")
	}
	p.Clock.Advance(og.gcfg.Interval)
	og.WillRead(o)
	if !m.In(m.GetPrimary(o), dm.Fast) {
		t.Fatal("hot slow-resident object not promoted at the interval boundary")
	}
	st := og.AdaptiveStats()
	if st.Rebalances != 1 || st.Promotions != 1 {
		t.Fatalf("stats = %+v, want 1 rebalance and 1 promotion", st)
	}
	checkPol(t, pol)
}

// TestOnlineGuidanceDemotesCold: under fast-tier pressure, an object that
// has gone cold (its decayed score dropped below ColdScore) is demoted to
// make headroom; without pressure nothing moves.
func TestOnlineGuidanceDemotesCold(t *testing.T) {
	p, m, pol, _ := setup(t, CALM, 1_000_000, 10_000_000)
	og := NewOnlineGuidance(pol, GuidanceConfig{}, p.Clock.Now, nil)
	cold, err := og.NewObject(900_000) // fills fast past the headroom threshold
	if err != nil {
		t.Fatal(err)
	}
	hot, err := og.NewObject(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !m.In(m.GetPrimary(cold), dm.Fast) {
		t.Fatal("CA:LM object not born in fast memory")
	}
	// Three idle intervals decay the cold object's score 1 -> 0.5 ->
	// 0.25, crossing ColdScore on the third boundary; the hot object is
	// re-accessed each interval so it stays resident.
	for i := 0; i < 3; i++ {
		p.Clock.Advance(og.gcfg.Interval)
		og.WillRead(hot)
	}
	if !m.In(m.GetPrimary(cold), dm.Slow) {
		t.Fatal("cold object not demoted under fast-tier pressure")
	}
	if st := og.AdaptiveStats(); st.Demotions != 1 {
		t.Fatalf("stats = %+v, want 1 demotion", st)
	}
	checkPol(t, pol)
}

// TestOnlineGuidanceThrottlesOnBusyBus: a rebalance pass that reads high
// slow-tier bandwidth utilization from its closure halves its move
// budget and counts the throttle.
func TestOnlineGuidanceThrottlesOnBusyBus(t *testing.T) {
	p, _, pol, _ := setup(t, CALM, 1_000_000, 1_000_000)
	util := 0.0
	og := NewOnlineGuidance(pol, GuidanceConfig{}, p.Clock.Now, func() float64 { return util })
	o, _ := og.NewObject(1000)
	p.Clock.Advance(og.gcfg.Interval)
	og.WillRead(o)
	if st := og.AdaptiveStats(); st.Throttled != 0 {
		t.Fatalf("throttled on an idle bus: %+v", st)
	}
	util = 0.9
	p.Clock.Advance(og.gcfg.Interval)
	og.WillRead(o)
	if st := og.AdaptiveStats(); st.Throttled != 1 {
		t.Fatalf("stats = %+v, want 1 throttled pass", st)
	}
}

// TestThrashGuardTripsAndSuppresses: two objects ping-ponging through a
// fast tier that holds only one trip the guard, after which the loser's
// fetches are absorbed and it is served in place from slow memory.
func TestThrashGuardTripsAndSuppresses(t *testing.T) {
	p, m, pol, _ := setup(t, CALMP, 1_000_000, 10_000_000)
	tg := NewThrashGuard(pol, pol, ThrashConfig{}, p.Clock.Now)
	o1, _ := m.NewObject(600_000, dm.Slow)
	o2, _ := m.NewObject(600_000, dm.Slow)
	// Alternating reads: each fetch evicts the other object. After Trips
	// fetches of o1 land inside the window, o1 is backed off.
	trips := tg.tcfg.Trips
	for i := 0; i < trips; i++ {
		tg.WillRead(o1)
		tg.WillRead(o2)
	}
	st := tg.AdaptiveStats()
	if st.ThrashBackoffs == 0 {
		t.Fatalf("guard never tripped: %+v", st)
	}
	before := m.Stats().BytesSlowToFast
	tg.WillRead(o1)
	if m.Stats().BytesSlowToFast != before {
		t.Fatal("backed-off object still fetched")
	}
	if st := tg.AdaptiveStats(); st.SuppressedFetches == 0 {
		t.Fatalf("no suppressed fetches recorded: %+v", st)
	}
	checkPol(t, pol)
}

// TestThrashGuardSuppressedWriteStaysDirty: a write hint absorbed during
// backoff must still mark the slow-resident region dirty — suppression
// changes placement, never correctness.
func TestThrashGuardSuppressedWriteStaysDirty(t *testing.T) {
	p, m, pol, _ := setup(t, CALMP, 1_000_000, 10_000_000)
	tg := NewThrashGuard(pol, pol, ThrashConfig{}, p.Clock.Now)
	o1, _ := m.NewObject(600_000, dm.Slow)
	o2, _ := m.NewObject(600_000, dm.Slow)
	for i := 0; i < tg.tcfg.Trips; i++ {
		tg.WillRead(o1)
		tg.WillRead(o2)
	}
	if tg.AdaptiveStats().ThrashBackoffs == 0 {
		t.Fatal("guard never tripped")
	}
	tg.WillWrite(o1)
	r := m.GetPrimary(o1)
	if m.In(r, dm.Fast) {
		t.Fatal("suppressed write still fetched the object")
	}
	if !m.IsDirty(r) {
		t.Fatal("suppressed write did not mark the region dirty")
	}
	checkPol(t, pol)
}

// TestAdaptiveStatsCompose: a guard over a guidance policy reports one
// combined AdaptiveStats total.
func TestAdaptiveStatsCompose(t *testing.T) {
	p, _, pol, _ := setup(t, CALMP, 1_000_000, 1_000_000)
	og := NewOnlineGuidance(pol, GuidanceConfig{}, p.Clock.Now, nil)
	tg := NewThrashGuard(og, pol, ThrashConfig{}, p.Clock.Now)
	og.astats.Rebalances = 3
	tg.astats.ThrashBackoffs = 2
	st := tg.AdaptiveStats()
	if st.Rebalances != 3 || st.ThrashBackoffs != 2 {
		t.Fatalf("composed stats = %+v", st)
	}
}
