package experiments

import (
	"cachedarrays/internal/engine"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/sched"
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
	// tier-bound. Both models are built here, once — the row names and
	// the LSTM's platform come from the built graphs — and each row's six
	// cells share the read-only model.
	lcfg := models.DefaultLSTMConfig()
	lcfg.SeqLen, lcfg.BatchSize = 512, 128
	lstm := models.LSTM(lcfg)
	budget := lstm.PeakFootprint() / 3
	lstmCfg := opts.config()
	lstmCfg.FastCapacity = budget
	lstmCfg.SlowCapacity = 16 * lstm.PeakFootprint()

	rows := []struct {
		model *models.Model
		cfg   engine.Config
	}{
		{models.Transformer(cfg), opts.config()},
		{lstm, lstmCfg},
	}
	var cells []sched.Cell
	for _, rw := range rows {
		for _, mode := range ModeNames {
			cells = append(cells, sched.Cell{
				Name:  metrics.SafeName("beyond", rw.model.Name, mode),
				Model: rw.model, Mode: mode, Cfg: rw.cfg})
		}
	}
	results, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}
	for ri, rw := range rows {
		row := []string{rw.model.Name}
		for mi := range ModeNames {
			row = append(row, secs(results[ri*len(ModeNames)+mi].IterTime))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
