package experiments

import (
	"reflect"
	"testing"

	"cachedarrays/internal/sched"
)

// TestRunMatrixConcurrent runs the full (model × mode) sweep with the six
// cells of each network sharing one *models.Model (lazyModel) — first
// with every cell in flight at once, then on a four-worker scheduler, the
// shape the suite runs in. Under `go test -race` this proves a run only
// reads its model: a write anywhere in an engine mode would race with the
// five other cells reading the same graph. The serial re-run proves
// neither parallelism nor sharing changes any simulated result.
func TestRunMatrixConcurrent(t *testing.T) {
	ser, err := RunMatrix(Options{Iterations: 2, Scale: 64, Parallel: 1})
	if err != nil {
		t.Fatalf("serial RunMatrix: %v", err)
	}
	for name, opts := range map[string]Options{
		"every cell at once": {Iterations: 2, Scale: 64, Parallel: len(ModeNames) * 4},
		"four workers":       {Iterations: 2, Scale: 64, Sched: &sched.Scheduler{Workers: 4}},
	} {
		par, err := RunMatrix(opts)
		if err != nil {
			t.Fatalf("%s: RunMatrix: %v", name, err)
		}
		if len(par.Results) != len(ser.Results) {
			t.Fatalf("%s: %d cells, serial %d", name, len(par.Results), len(ser.Results))
		}
		for _, model := range par.Models {
			for _, mode := range ModeNames {
				pr, sr := par.Get(model, mode), ser.Get(model, mode)
				if pr.IterTime <= 0 {
					t.Errorf("%s: %s/%s: non-positive iteration time %v", name, model, mode, pr.IterTime)
				}
				if !reflect.DeepEqual(pr, sr) {
					t.Errorf("%s: %s/%s: result differs from the serial run (iter %v vs %v)",
						name, model, mode, pr.IterTime, sr.IterTime)
				}
			}
		}
	}
}
