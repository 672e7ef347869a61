package experiments

import (
	"fmt"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/sched"
)

// Ablations isolates the design choices DESIGN.md calls out, all on the
// large DenseNet under CA:LM (the paper's best mode on its most
// memory-hungry workload):
//
//   - heap allocator: first-fit free list (default) vs best-fit vs buddy;
//   - archive hints: present vs suppressed (pure LRU victim selection);
//   - hint reaction: CA:LM vs CA:LMP (prefetch) — repeated here from
//     Fig. 2 for side-by-side reading.
func Ablations(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	pm := models.PaperLargeModels()[0] // DenseNet 264
	t := &Table{
		Title: "ablations — DenseNet 264, CA:LM variants",
		Header: []string{"variant", "iter (s)", "move (s)", "NVRAM write (GB)",
			"evictions", "defrags"},
		Notes: []string{
			"archive hints buy eviction ordering: without them the LRU picks poorer victims",
			"the buddy allocator trades internal fragmentation for simpler compaction-free operation",
		},
	}
	type variant struct {
		name string
		mode string
		mut  func(*engine.Config)
	}
	variants := []variant{
		{"baseline (first-fit)", "CA:LM", func(*engine.Config) {}},
		{"best-fit allocator", "CA:LM", func(c *engine.Config) { c.Allocator = "bestfit" }},
		{"buddy allocator", "CA:LM", func(c *engine.Config) { c.Allocator = "buddy" }},
		{"no archive hints", "CA:LM", func(c *engine.Config) { c.NoArchiveHints = true }},
		{"clean-first victims", "CA:LM", func(c *engine.Config) { c.PreferCleanVictims = true }},
		{"prefetch (CA:LMP)", "CA:LMP", func(*engine.Config) {}},
		{"async mover", "CA:LM", func(c *engine.Config) { c.AsyncMovement = true }},
	}
	var cells []sched.Cell
	build := lazyModel(pm, opts.Scale)
	for _, v := range variants {
		cfg := opts.config()
		v.mut(&cfg)
		cells = append(cells, sched.Cell{
			Name:  metrics.SafeName("ablations", v.name),
			Build: build, Mode: v.mode, Cfg: cfg})
	}
	results, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		r := results[i]
		t.Rows = append(t.Rows, []string{
			v.name, secs(r.IterTime), secs(r.MoveTime),
			gb(r.Slow.WriteBytes),
			fmt.Sprint(r.Policy.Evictions / int64(len(r.Iterations))),
			fmt.Sprint(r.Policy.Defrags),
		})
	}
	return t, nil
}
