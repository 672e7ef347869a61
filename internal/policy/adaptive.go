// Adaptive policies: the paper's policies are static hint-driven
// heuristics; this file implements the online-guidance direction named in
// the roadmap — *Online Application Guidance for Heterogeneous Memory
// Systems* (interval-based online profiling and re-placement) — on top of
// the existing Tiered runtime. OnlineGuidance profiles object accesses
// over virtual-time intervals and re-ranks fast-tier residency at each
// boundary, steering by the slow tier's live bandwidth utilisation;
// ThrashGuard (thrashguard.go) adds Jenga-style responsiveness without
// thrashing.
package policy

import (
	"sort"

	"cachedarrays/internal/dm"
	"cachedarrays/internal/metrics"
)

// AdaptiveStats counts the decisions the adaptive layers take on top of
// the base policy's Stats. The zero value means "no adaptive layer ran".
type AdaptiveStats struct {
	// Rebalances counts online-guidance re-placement passes; Promotions
	// and Demotions the placement moves those passes made; Throttled the
	// passes that halved their move budget because the slow tier's bus
	// was already saturated.
	Rebalances int64
	Promotions int64
	Demotions  int64
	Throttled  int64
	// ThrashBackoffs counts objects the thrash guard put into backoff;
	// SuppressedFetches the hints whose fetch it absorbed while backed
	// off.
	ThrashBackoffs    int64
	SuppressedFetches int64
}

// Add accumulates o into s (stacked adaptive layers report one total).
func (s *AdaptiveStats) Add(o AdaptiveStats) {
	s.Rebalances += o.Rebalances
	s.Promotions += o.Promotions
	s.Demotions += o.Demotions
	s.Throttled += o.Throttled
	s.ThrashBackoffs += o.ThrashBackoffs
	s.SuppressedFetches += o.SuppressedFetches
}

// AdaptiveSource is implemented by policy layers that keep AdaptiveStats;
// the engine snapshots them into the run result.
type AdaptiveSource interface {
	AdaptiveStats() AdaptiveStats
}

// GuidanceConfig tunes the online-guidance policy.
type GuidanceConfig struct {
	// Interval is the re-placement cadence in virtual seconds: at each
	// boundary the policy decays its per-object access scores and
	// re-ranks residency (the "interval-based online profiling" of the
	// online-guidance literature).
	Interval float64
	// HotScore is the decayed access score at or above which a
	// slow-resident object is promoted into free fast memory.
	HotScore float64
	// ColdScore is the decayed access score below which a fast-resident
	// object counts as cold and is eligible for demotion under pressure.
	// Decay halves the score each interval, so an object that was used
	// once goes cold (crosses 0.5) after two idle intervals.
	ColdScore float64
	// MaxMoves caps placement moves (promotions + demotions) per pass,
	// bounding the churn a single boundary can add.
	MaxMoves int
	// HighBWUtil is the slow-tier bus-utilization fraction above which a
	// pass halves its move budget: when the NVRAM bus is already
	// saturated, re-placement traffic would only steal bandwidth from
	// the application.
	HighBWUtil float64
	// LowHeadroom is the fast-tier free fraction below which cold
	// objects are demoted; with more headroom than this, demotion buys
	// nothing (the paper's "no downside to archive if everything fits").
	LowHeadroom float64
}

// GuidanceDefaults returns the evaluated guidance configuration.
func GuidanceDefaults() GuidanceConfig {
	return GuidanceConfig{
		Interval:    25e-3,
		HotScore:    2,
		ColdScore:   0.5,
		MaxMoves:    8,
		HighBWUtil:  0.6,
		LowHeadroom: 0.25,
	}
}

// guideState is the per-object profile the guidance policy keeps.
type guideState struct {
	uses  int64   // accesses since the last boundary
	score float64 // decayed access score (score/2 + uses at each boundary)
}

// OnlineGuidance wraps a Tiered policy with interval-based online
// profiling and re-placement: every hint is counted against its object,
// and at each virtual-time interval boundary the policy demotes objects
// that went cold while fast memory is tight and promotes hot
// slow-resident objects into free fast memory (never by force — forced
// promotion is exactly the churn the thrash guard exists to damp).
// Placement pressure is one live value, the slow tier's achieved
// bandwidth over its mixed peak (what the mem_<slow>_bw_util gauge
// exports), read at each boundary — never a recorded series.
type OnlineGuidance struct {
	*Tiered
	gcfg GuidanceConfig
	now  func() float64
	// slowUtil reads the slow tier's live bandwidth utilisation; nil
	// never throttles.
	slowUtil func() float64

	next   float64
	order  []*dm.Object // live tracked objects in creation order (deterministic walks)
	gstate map[*dm.Object]*guideState
	astats AdaptiveStats
}

var (
	_ Runtime        = (*OnlineGuidance)(nil)
	_ AdaptiveSource = (*OnlineGuidance)(nil)
)

// NewOnlineGuidance wraps base with interval re-placement. now is the
// virtual clock (the policy never advances it); slowUtil reads the slow
// tier's live bandwidth utilisation as a fraction of its mixed peak (nil
// degrades to allocator-derived pressure only: a pass never throttles).
func NewOnlineGuidance(base *Tiered, gcfg GuidanceConfig, now func() float64, slowUtil func() float64) *OnlineGuidance {
	d := GuidanceDefaults()
	if gcfg.Interval <= 0 {
		gcfg.Interval = d.Interval
	}
	if gcfg.HotScore <= 0 {
		gcfg.HotScore = d.HotScore
	}
	if gcfg.ColdScore <= 0 {
		gcfg.ColdScore = d.ColdScore
	}
	if gcfg.MaxMoves <= 0 {
		gcfg.MaxMoves = d.MaxMoves
	}
	if gcfg.HighBWUtil <= 0 {
		gcfg.HighBWUtil = d.HighBWUtil
	}
	if gcfg.LowHeadroom <= 0 {
		gcfg.LowHeadroom = d.LowHeadroom
	}
	return &OnlineGuidance{
		Tiered:   base,
		gcfg:     gcfg,
		now:      now,
		slowUtil: slowUtil,
		next:     gcfg.Interval,
		gstate:   make(map[*dm.Object]*guideState),
	}
}

// AdaptiveStats snapshots the guidance counters.
func (g *OnlineGuidance) AdaptiveStats() AdaptiveStats { return g.astats }

// RegisterMetrics registers the base policy's series plus the guidance
// decision counters.
func (g *OnlineGuidance) RegisterMetrics(reg *metrics.Registry) {
	g.Tiered.RegisterMetrics(reg)
	if !reg.Enabled() {
		return
	}
	reg.CounterFunc("guidance_rebalances", func() float64 { return float64(g.astats.Rebalances) })
	reg.CounterFunc("guidance_promotions", func() float64 { return float64(g.astats.Promotions) })
	reg.CounterFunc("guidance_demotions", func() float64 { return float64(g.astats.Demotions) })
	reg.CounterFunc("guidance_throttled", func() float64 { return float64(g.astats.Throttled) })
}

// note profiles one access to o.
func (g *OnlineGuidance) note(o *dm.Object) {
	s, ok := g.gstate[o]
	if !ok {
		s = &guideState{}
		g.gstate[o] = s
		g.order = append(g.order, o)
	}
	s.uses++
}

// NewObject tracks the fresh object in the profile.
func (g *OnlineGuidance) NewObject(size int64) (*dm.Object, error) {
	o, err := g.Tiered.NewObject(size)
	if err != nil {
		return nil, err
	}
	g.note(o)
	return o, nil
}

// WillUse profiles the access, runs any due re-placement pass, then
// forwards the hint.
func (g *OnlineGuidance) WillUse(o *dm.Object) {
	g.note(o)
	g.maybeRebalance()
	g.Tiered.WillUse(o)
}

// WillRead profiles the access, runs any due re-placement pass, then
// forwards the hint.
func (g *OnlineGuidance) WillRead(o *dm.Object) {
	g.note(o)
	g.maybeRebalance()
	g.Tiered.WillRead(o)
}

// WillWrite profiles the access, runs any due re-placement pass, then
// forwards the hint.
func (g *OnlineGuidance) WillWrite(o *dm.Object) {
	g.note(o)
	g.maybeRebalance()
	g.Tiered.WillWrite(o)
}

// Archive zeroes the object's profile (the application itself declared it
// cold — the strongest possible guidance signal) and forwards.
func (g *OnlineGuidance) Archive(o *dm.Object) {
	if s, ok := g.gstate[o]; ok {
		s.uses, s.score = 0, 0
	}
	g.Tiered.Archive(o)
}

// Retire drops the object from the profile and forwards.
func (g *OnlineGuidance) Retire(o *dm.Object) {
	delete(g.gstate, o)
	g.Tiered.Retire(o)
}

// maybeRebalance runs a re-placement pass when virtual time has crossed
// the next interval boundary.
func (g *OnlineGuidance) maybeRebalance() {
	now := g.now()
	if now < g.next {
		return
	}
	for g.next <= now {
		g.next += g.gcfg.Interval
	}
	g.rebalance()
}

// rebalance is one interval boundary: decay the profile, then move data —
// demote cold fast-resident objects when fast memory is tight, promote
// hot slow-resident objects into free fast memory — under a move budget
// throttled by the slow tier's live bus utilization.
func (g *OnlineGuidance) rebalance() {
	g.astats.Rebalances++

	budget := g.gcfg.MaxMoves
	if g.slowUtil != nil && g.slowUtil() > g.gcfg.HighBWUtil {
		// The slow bus is already the bottleneck: every demotion
		// writeback and promotion read would steal bandwidth the
		// application is using. Halve the pass's churn.
		budget /= 2
		g.astats.Throttled++
	}

	// Decay scores and compact retired objects out of the walk order.
	live := g.order[:0]
	for _, o := range g.order {
		s, ok := g.gstate[o]
		if !ok || o.Retired() {
			delete(g.gstate, o)
			continue
		}
		// float64() rounds the halving (a multiply by 0.5): no fused multiply-add on any GOARCH.
		s.score = float64(s.score/2) + float64(s.uses)
		s.uses = 0
		live = append(live, o)
	}
	for i := len(live); i < len(g.order); i++ {
		g.order[i] = nil
	}
	g.order = live

	// Demotion: only under fast-tier pressure, cold (score below the
	// threshold — decay alone never reaches exactly zero), unpinned,
	// unarchived objects — archived objects are already prioritized
	// victims — in creation order.
	fast := g.m.AllocatorFor(dm.Fast)
	if capacity := fast.Capacity(); capacity > 0 &&
		float64(fast.FreeBytes()) < g.gcfg.LowHeadroom*float64(capacity) {
		for _, o := range g.order {
			if budget <= 0 {
				break
			}
			s := g.gstate[o]
			st := state(o)
			if s.score >= g.gcfg.ColdScore || st.pinned || st.archived || !g.m.In(g.m.GetPrimary(o), dm.Fast) {
				continue
			}
			if err := g.Evict(o); err == nil {
				g.astats.Demotions++
				g.tr.Decision("og-demote", o.ID(), o.Size())
				budget--
			}
		}
	}

	// Promotion: hottest slow-resident objects first, into free fast
	// memory only (force=false) — speculative promotion must never evict
	// somebody else's working set; that is the thrash the guard damps.
	hot := make([]*dm.Object, 0, 8)
	for _, o := range g.order {
		if s := g.gstate[o]; s.score >= g.gcfg.HotScore &&
			!g.m.In(g.m.GetPrimary(o), dm.Fast) {
			hot = append(hot, o)
		}
	}
	sort.SliceStable(hot, func(i, j int) bool {
		si, sj := g.gstate[hot[i]].score, g.gstate[hot[j]].score
		if si != sj {
			return si > sj
		}
		return hot[i].ID() < hot[j].ID()
	})
	for _, o := range hot {
		if budget <= 0 {
			break
		}
		if g.Prefetch(o, false) {
			g.astats.Promotions++
			g.tr.Decision("og-promote", o.ID(), o.Size())
			budget--
		}
	}
}
