package experiments

import (
	"cachedarrays/internal/engine"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/sched"
)

// Baselines compares the three data-management mechanisms of Table I that
// this repository implements, per large network:
//
//   - hardware-managed caching (2LM, with and without eager frees),
//   - OS-level page migration (reactive hotness tiering, no hints),
//   - CachedArrays (semantic hints, object granularity) — sync and with
//     the asynchronous mover.
//
// This extends Fig. 2 with the related-work tier the paper positions
// itself against in §II.
func Baselines(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		Title:  "Table I mechanisms compared — iteration time (s), large networks",
		Header: []string{"model", "2LM:0", "2LM:M", "OS:page", "AutoTM:plan", "CA:LM", "CA:LM+async"},
		Notes: []string{
			"OS paging reacts to observed hotness only: better than an unmanaged cache, behind semantic tiering",
			"the static AutoTM-style plan is competitive on these regular CNNs (it cannot adapt to dynamic workloads — see the DLRM experiment)",
			"the asynchronous mover removes CachedArrays' synchronous movement stalls on top",
		},
	}
	cfg := opts.config()
	asyncCfg := cfg
	asyncCfg.AsyncMovement = true
	// Six mechanisms per model; four of these cells (the 2LM pair, CA:LM
	// and CA:LM+async) are identical to cells other figures submit, so a
	// caching scheduler computes them once across the whole suite.
	type variant struct {
		label string
		mode  string
		cfg   engine.Config
	}
	variants := []variant{
		{"2lm0", "2LM:0", cfg}, {"2lmM", "2LM:M", cfg}, {"ospage", "OS:page", cfg},
		{"plan", "AutoTM", cfg}, {"calm", "CA:LM", cfg}, {"calm-async", "CA:LM", asyncCfg},
	}
	var cells []sched.Cell
	for _, pm := range models.PaperLargeModels() {
		build := lazyModel(pm, opts.Scale)
		for _, v := range variants {
			cells = append(cells, sched.Cell{
				Name:  metrics.SafeName("baselines", pm.Name, v.label),
				Build: build, Mode: v.mode, Cfg: v.cfg})
		}
	}
	results, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}
	for mi, pm := range models.PaperLargeModels() {
		row := []string{pm.Name}
		for vi := range variants {
			row = append(row, secs(results[mi*len(variants)+vi].IterTime))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
