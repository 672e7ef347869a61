package experiments

import (
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/sched"
)

// CXLPortability runs the §VI platform-portability claim: "when migrating
// an application to a new heterogeneous memory platform, the user-defined
// policy does not have to be modified." We rerun the large-network mode
// matrix with the slow tier swapped from Optane NVRAM to CXL-attached
// remote DRAM — no policy, hint, or application change — and check the
// same orderings emerge.
func CXLPortability(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		Title:  "§VI — CXL remote memory as the slow tier, iteration time (s)",
		Header: append([]string{"model"}, "CA:0", "CA:L", "CA:LM", "CA:LMP"),
		Notes: []string{
			"identical policies and hints as the NVRAM runs — only the platform description changed",
			"CXL's symmetric bandwidth shrinks the writeback penalty, so the optimization gaps compress",
		},
	}
	modes := []string{"CA:0", "CA:L", "CA:LM", "CA:LMP"}
	cfg := opts.config()
	cfg.SlowTier = "cxl"
	var cells []sched.Cell
	for _, pm := range models.PaperLargeModels() {
		build := lazyModel(pm, opts.Scale)
		for _, mode := range modes {
			cells = append(cells, sched.Cell{
				Name:  metrics.SafeName("cxl", pm.Name, mode),
				Build: build, Mode: mode, Cfg: cfg})
		}
	}
	results, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}
	for mi, pm := range models.PaperLargeModels() {
		row := []string{pm.Name}
		for vi := range modes {
			row = append(row, secs(results[mi*len(modes)+vi].IterTime))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
