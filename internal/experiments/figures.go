package experiments

import (
	"fmt"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/sched"
	"cachedarrays/internal/units"
)

// TableIII reproduces Table III: the large and small benchmark networks
// with their batch sizes and the approximate minimum memory footprint of a
// single training iteration.
func TableIII() *Table {
	t := &Table{
		Title:  "Table III — benchmark networks and training footprints",
		Header: []string{"class", "model", "batch", "footprint (GB)", "paper (GB)"},
		Notes: []string{
			"large networks must greatly exceed the 180 GB DRAM budget; small ones must fit",
			"footprints are graph-derived peak-liveness; paper values are measured on the testbed",
		},
	}
	paper := map[string]string{
		"large/DenseNet 264": "526", "large/ResNet 200": "529", "large/VGG 416": "520",
		"small/DenseNet 264": "170-180", "small/ResNet 200": "170-180", "small/VGG 116": "170-180",
	}
	add := func(class string, pms []models.PaperModel) {
		for _, pm := range pms {
			m := pm.Build()
			t.Rows = append(t.Rows, []string{
				class, pm.Name, fmt.Sprint(pm.BatchSize),
				gb(m.PeakFootprint()), paper[class+"/"+pm.Name],
			})
		}
	}
	add("large", models.PaperLargeModels())
	add("small", models.PaperSmallModels())
	return t
}

// Fig2 reproduces Figure 2: average single-iteration training time for the
// large networks under each operating mode.
func Fig2(m *Matrix) *Table {
	t := &Table{
		Title:  "Fig. 2 — iteration time (s), large networks x operating mode",
		Header: append([]string{"model"}, ModeNames...),
		Notes: []string{
			"CachedArrays' best mode beats 2LM:0 on every network (paper: 1.4x-2.03x)",
			"prefetching (LMP) hurts DenseNet/ResNet but helps VGG — no one size fits all",
		},
	}
	for _, model := range m.Models {
		row := []string{model}
		for _, mode := range ModeNames {
			row = append(row, secs(m.Get(model, mode).IterTime))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig3 reproduces Figure 3: resident heap memory through one ResNet
// iteration under the two 2LM regimes. Points are down-sampled to at most
// maxPoints per curve.
func Fig3(opts Options, maxPoints int) (*Table, error) {
	opts = opts.withDefaults()
	if maxPoints <= 0 {
		maxPoints = 64
	}
	pm := models.PaperLargeModels()[1] // ResNet 200
	cfg := opts.config()
	cfg.SampleHeap = true
	m := pm.BuildScaled(opts.Scale) // built here: the run names carry the model's name
	results, err := opts.runCells([]sched.Cell{
		{Name: metrics.SafeName("fig3", m.Name, "2lm0"), Model: m, Mode: "2LM:0", Cfg: cfg},
		{Name: metrics.SafeName("fig3", m.Name, "2lmM"), Model: m, Mode: "2LM:M", Cfg: cfg},
	})
	if err != nil {
		return nil, err
	}
	r0, rm := results[0], results[1]
	t := &Table{
		Title:  "Fig. 3 — resident heap (GB) through one ResNet iteration",
		Header: []string{"series", "time (s)", "heap (GB)"},
		Notes: []string{
			"2LM:0 grows monotonically until the collector runs; 2LM:M frees on the backward pass",
			fmt.Sprintf("peaks: 2LM:0 %s vs 2LM:M %s", units.Bytes(r0.PeakHeap), units.Bytes(rm.PeakHeap)),
		},
	}
	appendSeries := func(name string, samples []engine.HeapSample) {
		stride := (len(samples) + maxPoints - 1) / maxPoints
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < len(samples); i += stride {
			s := samples[i]
			t.Rows = append(t.Rows, []string{name, fmt.Sprintf("%.2f", s.Time), gb(s.Used)})
		}
	}
	appendSeries("2LM:0", r0.HeapSamples)
	appendSeries("2LM:M", rm.HeapSamples)
	return t, nil
}

// Fig4 reproduces Figure 4: DRAM cache tag statistics for one ResNet
// training iteration under the two 2LM regimes.
func Fig4(m *Matrix) *Table {
	t := &Table{
		Title:  "Fig. 4 — DRAM cache tag statistics, ResNet 200",
		Header: []string{"mode", "hit rate", "clean miss rate", "dirty miss rate"},
		Notes: []string{
			"the annotated run (2LM:M) has a higher hit rate (paper: +18%) and ~50% lower dirty-miss rate",
		},
	}
	for _, mode := range []string{"2LM:0", "2LM:M"} {
		c := m.Get("ResNet 200", mode).Cache
		t.Rows = append(t.Rows, []string{
			mode, pct(c.HitRate()), pct(c.CleanMissRate()), pct(c.DirtyMissRate()),
		})
	}
	return t
}

// Fig5 reproduces Figure 5: DRAM and NVRAM read/write traffic (GB) for a
// single training iteration, per model and mode.
func Fig5(m *Matrix) *Table {
	t := &Table{
		Title:  "Fig. 5 — data moved per iteration (GB)",
		Header: []string{"model", "mode", "DRAM read", "DRAM write", "NVRAM read", "NVRAM write"},
		Notes: []string{
			"memory optimization (M) slashes NVRAM writes (paper DenseNet: ~1100 GB -> ~350 GB)",
			"local allocation (L) removes the compulsory-miss copies of CA:0",
			"prefetching (P) converts NVRAM reads into DRAM reads",
		},
	}
	for _, model := range m.Models {
		for _, mode := range ModeNames {
			r := m.Get(model, mode)
			t.Rows = append(t.Rows, []string{
				model, mode,
				gb(r.Fast.ReadBytes), gb(r.Fast.WriteBytes),
				gb(r.Slow.ReadBytes), gb(r.Slow.WriteBytes),
			})
		}
	}
	return t
}

// Fig6 reproduces Figure 6: average DRAM bus utilization (achieved
// bandwidth over mixed peak) for ResNet 200 and VGG 416.
func Fig6(m *Matrix) *Table {
	t := &Table{
		Title:  "Fig. 6 — average DRAM bus utilization",
		Header: append([]string{"model"}, ModeNames...),
		Notes: []string{
			"CA:0 beats 2LM:0 for ResNet (large transfers) and loses for VGG (small batch)",
			"as optimizations apply, utilization rises while total traffic falls",
		},
	}
	for _, model := range []string{"ResNet 200", "VGG 416"} {
		row := []string{model}
		for _, mode := range ModeNames {
			row = append(row, pct(m.Get(model, mode).FastBusUtil))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// DefaultFig7Budgets are the DRAM allowances swept in Figure 7, from the
// full socket budget down to NVRAM-only.
func DefaultFig7Budgets() []int64 {
	return []int64{
		180 * units.GB, 150 * units.GB, 120 * units.GB, 90 * units.GB,
		60 * units.GB, 30 * units.GB, 10 * units.GB, engine.NVRAMOnly,
	}
}

// Fig7Async extends Figure 7 by *implementing* the system the paper only
// projects: an asynchronous mover (§V-c future work). For each small
// network and DRAM budget it reports the synchronous time, the paper-style
// projection derived from it, and the actually-measured asynchronous time.
func Fig7Async(opts Options, budgets []int64) (*Table, error) {
	opts = opts.withDefaults()
	if len(budgets) == 0 {
		budgets = DefaultFig7Budgets()
	}
	t := &Table{
		Title:  "Fig. 7 extension — asynchronous movement: projection vs implementation",
		Header: []string{"model", "DRAM (GB)", "sync (s)", "projection (s)", "async measured (s)"},
		Notes: []string{
			"the async mover (separate timeline, per-dependency waits, paced writebacks) lands on the projected line",
			"DenseNet/ResNet flatten out; VGG remains read-bound, exactly as the paper anticipates",
		},
	}
	var cells []sched.Cell
	for _, pm := range models.PaperSmallModels() {
		build := lazyModel(pm, opts.Scale)
		for _, b := range budgets {
			cfg := opts.config()
			cfg.FastCapacity = b
			acfg := cfg
			acfg.AsyncMovement = true
			cells = append(cells,
				sched.Cell{Name: metrics.SafeName("fig7async", pm.Name, fmt.Sprint(b), "sync"),
					Build: build, Mode: "CA:LM", Cfg: cfg},
				sched.Cell{Name: metrics.SafeName("fig7async", pm.Name, fmt.Sprint(b), "async"),
					Build: build, Mode: "CA:LM", Cfg: acfg})
		}
	}
	results, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, pm := range models.PaperSmallModels() {
		for _, b := range budgets {
			sync, async := results[i], results[i+1]
			i += 2
			shown := b
			if shown == engine.NVRAMOnly {
				shown = 0
			}
			t.Rows = append(t.Rows, []string{
				pm.Name, gb(shown), secs(sync.IterTime),
				secs(sync.ProjectedAsyncTime), secs(async.IterTime),
			})
		}
	}
	return t, nil
}

// Fig7 reproduces Figure 7: iteration time for the small networks under
// CA:LM as the DRAM budget shrinks, alongside the projected time with
// perfectly asynchronous data movement.
func Fig7(opts Options, budgets []int64) (*Table, error) {
	opts = opts.withDefaults()
	if len(budgets) == 0 {
		budgets = DefaultFig7Budgets()
	}
	t := &Table{
		Title:  "Fig. 7 — small networks, CA:LM, iteration time vs DRAM budget",
		Header: []string{"model", "DRAM (GB)", "iter (s)", "async projection (s)", "NVRAM read (GB)", "NVRAM write (GB)"},
		Notes: []string{
			"NVRAM-only costs 3x-7x (paper: 3-4x); a small DRAM budget recovers most of it",
			"the async projection stays nearly flat for DenseNet/ResNet; VGG remains read-bound",
		},
	}
	var cells []sched.Cell
	for _, pm := range models.PaperSmallModels() {
		build := lazyModel(pm, opts.Scale)
		for _, b := range budgets {
			cfg := opts.config()
			cfg.FastCapacity = b
			cells = append(cells, sched.Cell{
				Name:  metrics.SafeName("fig7", pm.Name, fmt.Sprint(b)),
				Build: build, Mode: "CA:LM", Cfg: cfg})
		}
	}
	results, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, pm := range models.PaperSmallModels() {
		for _, b := range budgets {
			r := results[i]
			i++
			shown := b
			if shown == engine.NVRAMOnly {
				shown = 0
			}
			t.Rows = append(t.Rows, []string{
				pm.Name, gb(shown), secs(r.IterTime), secs(r.ProjectedAsyncTime),
				gb(r.Slow.ReadBytes), gb(r.Slow.WriteBytes),
			})
		}
	}
	return t, nil
}
