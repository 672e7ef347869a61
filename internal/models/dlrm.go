package models

import (
	"fmt"
	"math/rand"
)

// DLRMConfig parameterizes the recommendation-model workload of the
// paper's §VI extension discussion. DLRMs stress a tiering runtime very
// differently from CNNs: huge embedding tables are accessed *sparsely* and
// the hot set shifts with the input distribution, so static placement
// fails and the policy must adapt (Hildebrand et al., ISC'23).
type DLRMConfig struct {
	NumTables      int   // embedding tables
	RowsPerTable   int   // rows per table
	EmbeddingDim   int   // elements per row
	LookupsPerStep int   // rows gathered per table per step
	BottomMLP      []int // dense feature MLP widths
	TopMLP         []int // interaction MLP widths
	BatchSize      int
	Steps          int // inference/training steps in the trace
	Seed           int64
	// HotFraction of rows receive ZipfSkew of the traffic, shifting
	// every ShiftEvery steps (the locality drift the policy must track).
	HotFraction float64
	ZipfSkew    float64
	ShiftEvery  int
}

// DefaultDLRMConfig returns a laptop-scale configuration exercising the
// same code paths as a production model.
func DefaultDLRMConfig() DLRMConfig {
	return DLRMConfig{
		NumTables:      8,
		RowsPerTable:   4096,
		EmbeddingDim:   64,
		LookupsPerStep: 32,
		BottomMLP:      []int{512, 256, 64},
		TopMLP:         []int{512, 256, 1},
		BatchSize:      128,
		Steps:          64,
		Seed:           1,
		HotFraction:    0.05,
		ZipfSkew:       0.9,
		ShiftEvery:     16,
	}
}

// DLRMWorkload is a sparse-access trace over embedding-table row objects:
// each step gathers a set of rows per table, runs the dense MLP kernels,
// and moves on. Rows are separate objects so a tiering policy can place
// hot rows in fast memory — the object-granularity flexibility the paper
// argues for.
type DLRMWorkload struct {
	Config DLRMConfig
	// RowBytes is the size of one embedding row object.
	RowBytes int64
	// Steps[i][t] lists the row indices gathered from table t at step i.
	Steps [][][]int
	// MLPBytes is the total dense-parameter footprint.
	MLPBytes int64
	// MLPFLOPsPerStep approximates the dense compute per step.
	MLPFLOPsPerStep float64
}

// NewDLRMWorkload generates the sparse access trace: a hot set of rows
// receives most lookups, and the hot set rotates every ShiftEvery steps.
func NewDLRMWorkload(cfg DLRMConfig) *DLRMWorkload {
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &DLRMWorkload{
		Config:   cfg,
		RowBytes: int64(cfg.EmbeddingDim) * bytesPerElem,
	}
	prev := 0
	for _, width := range append(append([]int{}, cfg.BottomMLP...), cfg.TopMLP...) {
		if prev > 0 {
			w.MLPBytes += int64(prev) * int64(width) * bytesPerElem
			// float64() rounds the product: no fused multiply-add on any GOARCH.
			w.MLPFLOPsPerStep += float64(2 * float64(prev) * float64(width) * float64(cfg.BatchSize))
		}
		prev = width
	}
	hotRows := int(float64(cfg.RowsPerTable) * cfg.HotFraction)
	if hotRows < 1 {
		hotRows = 1
	}
	hotBase := 0
	for step := 0; step < cfg.Steps; step++ {
		if cfg.ShiftEvery > 0 && step > 0 && step%cfg.ShiftEvery == 0 {
			// The hot set drifts: new region of each table heats up.
			hotBase = (hotBase + hotRows) % cfg.RowsPerTable
		}
		tables := make([][]int, cfg.NumTables)
		for t := range tables {
			rows := make([]int, cfg.LookupsPerStep)
			for i := range rows {
				if rng.Float64() < cfg.ZipfSkew {
					rows[i] = (hotBase + rng.Intn(hotRows)) % cfg.RowsPerTable
				} else {
					rows[i] = rng.Intn(cfg.RowsPerTable)
				}
			}
			tables[t] = rows
		}
		w.Steps = append(w.Steps, tables)
	}
	return w
}

// TotalRows returns the number of embedding-row objects.
func (w *DLRMWorkload) TotalRows() int {
	return w.Config.NumTables * w.Config.RowsPerTable
}

// EmbeddingBytes returns the total embedding footprint.
func (w *DLRMWorkload) EmbeddingBytes() int64 {
	return int64(w.TotalRows()) * w.RowBytes
}

// String summarizes the workload.
func (w *DLRMWorkload) String() string {
	return fmt.Sprintf("dlrm(tables=%d rows=%d dim=%d steps=%d)",
		w.Config.NumTables, w.Config.RowsPerTable, w.Config.EmbeddingDim, len(w.Steps))
}
