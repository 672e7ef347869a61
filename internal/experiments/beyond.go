package experiments

import (
	"cachedarrays/internal/engine"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/sched"
	"cachedarrays/internal/twolm"
)

// BeyondCNNs runs the §VI generality check: a Transformer encoder whose
// training footprint exceeds the DRAM budget, through the same operating
// modes as the CNNs. The FILO activation pattern (attention score tensors
// produced on the forward pass, consumed on the backward pass) gives the
// hints the same leverage, without any CNN-specific assumptions in the
// policy.
func BeyondCNNs(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	cfg := models.DefaultTransformerConfig()
	cfg.BatchSize = 96 // ~320 GB footprint at seq 1024
	if opts.Scale > 1 {
		cfg.BatchSize /= opts.Scale
		if cfg.BatchSize < 1 {
			cfg.BatchSize = 1
		}
	}
	t := &Table{
		Title:  "§VI — beyond CNNs: Transformer and LSTM training, iteration time (s)",
		Header: append([]string{"model"}, ModeNames...),
		Notes: []string{
			"the Transformer reproduces the full CNN mode ordering: attention activations tier like CNN activations",
			"the LSTM (proportionally smaller platform) is compute-dense: its gate matmuls dwarf state movement,",
			"so all modes tie — the runtime's indirection costs nothing on workloads that do not need tiering",
		},
	}

	// The LSTM's unrolled states (BPTT) total single-digit gigabytes, so
	// it runs against a proportionally shrunk platform to stay
	// tier-bound. The model builders are deterministic, so each cell gets
	// a private instance (concurrent cells must not share a model).
	lcfg := models.DefaultLSTMConfig()
	lcfg.SeqLen, lcfg.BatchSize = 512, 128
	budget := models.LSTM(lcfg).PeakFootprint() / 3
	lstmCfg := opts.config()
	lstmCfg.FastCapacity = budget
	lstmCfg.SlowCapacity = 16 * models.LSTM(lcfg).PeakFootprint()
	lstmCfg.TwoLM = twolmConfigFor(budget)

	rows := []struct {
		name  string
		build func() *models.Model
		cfg   engine.Config
	}{
		// One build per row resolves the display name; the per-cell
		// builds below run lazily on the scheduler workers.
		{models.Transformer(cfg).Name, func() *models.Model { return models.Transformer(cfg) }, opts.config()},
		{models.LSTM(lcfg).Name, func() *models.Model { return models.LSTM(lcfg) }, lstmCfg},
	}
	var cells []sched.Cell
	for _, rw := range rows {
		build := rw.build
		for _, mode := range ModeNames {
			cells = append(cells, sched.Cell{
				Name:  metrics.SafeName("beyond", rw.name, mode),
				Build: func() (*models.Model, error) { return build(), nil },
				Mode:  mode, Cfg: rw.cfg})
		}
	}
	results, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}
	for ri, rw := range rows {
		row := []string{rw.name}
		for mi := range ModeNames {
			row = append(row, secs(results[ri*len(ModeNames)+mi].IterTime))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// twolmConfigFor scales the hardware cache's tag granularity down with the
// platform so small-budget runs keep a sensible set count.
func twolmConfigFor(fastBudget int64) (c twolm.Config) {
	c = twolm.DefaultConfig()
	for c.LineSize > 4096 && fastBudget/c.LineSize < 4096 {
		c.LineSize /= 2
	}
	return c
}
