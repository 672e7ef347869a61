package experiments

import (
	"fmt"
	"sync"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/sched"
)

// Options tune how experiments run.
type Options struct {
	// Iterations per run (paper: 4; the first is warm-up).
	Iterations int
	// Parallel bounds concurrent simulation runs (each run is
	// independent; 0 = serial). Ignored when Sched is set — the
	// scheduler's own worker bound applies.
	Parallel int
	// Scale divides every model's batch size, shrinking footprints and
	// host runtime proportionally for quick looks; 0 or 1 = paper scale.
	Scale int
	// Engine is the base engine configuration every run starts from;
	// shared knobs set here land in all of an experiment's runs at once.
	// Per-run fields (Iterations, capacities, mode switches) are layered
	// on top by each experiment.
	Engine engine.Config
	// Instrument, when non-nil, is called once per engine run with a
	// unique run name and the run's merged config before the run starts;
	// it may attach per-run instrumentation (a metrics registry, tracing,
	// fault schedules — runcfg.Session.Apply has this shape). The
	// returned callback (may be nil) receives the completed result for
	// per-run exports. It must be safe for concurrent calls: cells
	// execute in parallel.
	Instrument func(name string, cfg *engine.Config) func(*engine.Result) error
	// Sched, when non-nil, executes every driver's cells: its worker
	// pool bounds concurrency and its result cache (if any) memoizes
	// repeated cells across figures and processes. Nil gets a private
	// uncached scheduler with Parallel workers.
	Sched *sched.Scheduler
}

// scheduler returns the options' scheduler, defaulting to a private
// uncached one bounded by Parallel.
func (o Options) scheduler() *sched.Scheduler {
	if o.Sched != nil {
		return o.Sched
	}
	return &sched.Scheduler{Workers: o.Parallel}
}

// runCells threads every cell through the Instrument hook (which may
// attach per-run instrumentation to the cell's config — instrumented
// cells automatically bypass the scheduler's cache) and executes the
// batch on the scheduler. Results come back in cell order.
func (o Options) runCells(cells []sched.Cell) ([]*engine.Result, error) {
	if o.Instrument != nil {
		for i := range cells {
			cells[i].Done = o.Instrument(cells[i].Name, &cells[i].Cfg)
		}
	}
	return o.scheduler().Run(cells)
}

func (o Options) withDefaults() Options {
	if o.Iterations == 0 {
		o.Iterations = 4
	}
	if o.Parallel == 0 {
		o.Parallel = 1
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	return o
}

// ModeName identifies a column of Fig. 2/5/6: the two 2LM baselines plus
// the four CachedArrays operating modes, in the paper's order.
var ModeNames = []string{"2LM:0", "2LM:M", "CA:0", "CA:L", "CA:LM", "CA:LMP"}

// Cell addresses one (model, mode) run.
type Cell struct {
	Model string // paper model name, e.g. "DenseNet 264"
	Mode  string // one of ModeNames
}

// Matrix holds the results of the large-network (model x mode) sweep that
// Figures 2, 5 and 6 are views of.
type Matrix struct {
	Models  []string
	Results map[Cell]*engine.Result
}

// lazyModel defers a paper model's construction to the first scheduler
// worker that needs it and hands the one built graph to every cell the
// returned thunk is given to: drivers call it once per recipe, outside
// their cell loop, so a driver builds each model once however many modes
// and capacities it sweeps, and the build still overlaps with other
// cells' simulation. Sharing is safe because a built model is read-only
// — no engine mode writes to it (engine.TestStepperProtocol) — and it is
// by recipe, not by name: the large and small tables both list
// "DenseNet 264" and "ResNet 200" at different batch sizes.
func lazyModel(pm models.PaperModel, scale int) func() (*models.Model, error) {
	build := sync.OnceValue(func() *models.Model { return pm.BuildScaled(scale) })
	return func() (*models.Model, error) { return build(), nil }
}

// config returns the options' base engine config with iterations set —
// the starting point for every experiment's run configs.
func (o Options) config() engine.Config {
	cfg := o.Engine
	cfg.Iterations = o.Iterations
	return cfg
}

// RunMatrix executes every large network under every operating mode on
// the scheduler. The six cells of a network share one read-only model,
// built lazily by whichever worker reaches it first (lazyModel), so
// graph construction overlaps with other cells' simulation instead of
// serializing collection.
func RunMatrix(opts Options) (*Matrix, error) {
	opts = opts.withDefaults()
	cfg := opts.config()
	mat := &Matrix{Results: make(map[Cell]*engine.Result)}

	var (
		cells []sched.Cell
		keys  []Cell
	)
	for _, pm := range models.PaperLargeModels() {
		mat.Models = append(mat.Models, pm.Name)
		build := lazyModel(pm, opts.Scale)
		for _, mode := range ModeNames {
			cells = append(cells, sched.Cell{
				Name:  metrics.SafeName("matrix", pm.Name, mode),
				Build: build,
				Mode:  mode,
				Cfg:   cfg,
			})
			keys = append(keys, Cell{pm.Name, mode})
		}
	}
	results, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		mat.Results[keys[i]] = r
	}
	return mat, nil
}

// Get returns the result for a cell; it panics on a missing cell, which
// indicates a bug in the sweep itself.
func (m *Matrix) Get(model, mode string) *engine.Result {
	r, ok := m.Results[Cell{model, mode}]
	if !ok {
		panic(fmt.Sprintf("experiments: missing cell %s/%s", model, mode))
	}
	return r
}
