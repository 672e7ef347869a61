package engine

import (
	"fmt"

	"cachedarrays/internal/models"
	"cachedarrays/internal/policy"
)

// Adaptive policy variants: names accepted by RunCAAdaptive and exposed
// as scheduler modes. Each stacks adaptive layers on the full CA:LMP
// switch set — the adaptive layers refine the strongest static baseline
// rather than replace it.
const (
	// AdaptiveOG is online guidance alone: interval-based profiling and
	// re-placement steered by the slow tier's live bandwidth utilisation.
	AdaptiveOG = "CA:OG"
	// AdaptiveTG is the thrash guard alone over the static policy:
	// evict/fetch ping-pong detection with fetch backoff.
	AdaptiveTG = "CA:TG"
	// AdaptiveOGTG is the full stack: thrash guard over online guidance.
	AdaptiveOGTG = "CA:OGTG"
)

// AdaptiveModes lists the adaptive variants in rank order.
var AdaptiveModes = []string{AdaptiveOG, AdaptiveTG, AdaptiveOGTG}

// RunCAAdaptive executes a training run under an adaptive policy stack.
// Like every mode it carries a metrics registry only when cfg.Metrics is
// set — online guidance reads the slow tier's utilisation off the device
// counters — so an unmetered adaptive run is as cacheable as a static one.
func RunCAAdaptive(model *models.Model, variant string, cfg Config) (*Result, error) {
	return drive(newAdaptiveRun(model, variant, cfg, nil))
}

// newAdaptiveRun builds the event-driven form of RunCAAdaptive: a CA run
// whose static policy is wrapped in the variant's adaptive layers.
func newAdaptiveRun(model *models.Model, variant string, cfg Config, env *Env) (*run, error) {
	og := variant == AdaptiveOG || variant == AdaptiveOGTG
	tg := variant == AdaptiveTG || variant == AdaptiveOGTG
	if !og && !tg {
		return nil, fmt.Errorf("engine: unknown adaptive variant %q", variant)
	}
	return newCARun(model, variant, policy.CALMP, cfg, env, func(base *policy.Tiered, c *core) policy.Runtime {
		now := c.p.Clock.Now
		var pol policy.Runtime = base
		if og {
			pol = policy.NewOnlineGuidance(base, policy.GuidanceConfig{}, now,
				busUtil(c.p.Clock, c.p.Slow))
		}
		if tg {
			pol = policy.NewThrashGuard(pol, base, policy.ThrashConfig{}, now)
		}
		return pol
	})
}
