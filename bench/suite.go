package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cachedarrays/internal/cluster"
	"cachedarrays/internal/engine"
	"cachedarrays/internal/experiments"
	"cachedarrays/internal/models"
	"cachedarrays/internal/sched"
	"cachedarrays/internal/units"
)

// suiteDriver is one entry of the evaluation suite: what `cafigures`
// regenerates, one driver at a time. run returns the tables the driver
// emits, keyed by the results/<name>.csv they are compared against.
type suiteDriver struct {
	// key is the per-layer metric suffix (experiments.<key>_s).
	key string
	run func(experiments.Options) (map[string]*experiments.Table, error)
}

// suiteDrivers lists, in cafigures' order, every engine-driven driver of
// internal/experiments
// plus the three that do not go through the scheduler (grouped as misc).
// CheckClaims is handled separately: it yields claims, not tables.
func suiteDrivers() []suiteDriver {
	one := func(name string, f func(experiments.Options) (*experiments.Table, error)) func(experiments.Options) (map[string]*experiments.Table, error) {
		return func(o experiments.Options) (map[string]*experiments.Table, error) {
			t, err := f(o)
			if err != nil {
				return nil, err
			}
			return map[string]*experiments.Table{name: t}, nil
		}
	}
	return []suiteDriver{
		{"matrix", func(o experiments.Options) (map[string]*experiments.Table, error) {
			mat, err := experiments.RunMatrix(o)
			if err != nil {
				return nil, err
			}
			return map[string]*experiments.Table{
				"fig2": experiments.Fig2(mat), "fig4": experiments.Fig4(mat),
				"fig5": experiments.Fig5(mat), "fig6": experiments.Fig6(mat),
			}, nil
		}},
		{"fig3", one("fig3", func(o experiments.Options) (*experiments.Table, error) { return experiments.Fig3(o, 64) })},
		{"fig7", one("fig7", func(o experiments.Options) (*experiments.Table, error) { return experiments.Fig7(o, nil) })},
		{"fig7async", one("fig7async", func(o experiments.Options) (*experiments.Table, error) { return experiments.Fig7Async(o, nil) })},
		{"baselines", one("baselines", experiments.Baselines)},
		{"beyond", one("beyond", experiments.BeyondCNNs)},
		{"ablations", one("ablations", experiments.Ablations)},
		{"cxl", one("cxl", experiments.CXLPortability)},
		{"misc", func(experiments.Options) (map[string]*experiments.Table, error) {
			r, err := experiments.RunDLRM(models.DefaultDLRMConfig())
			if err != nil {
				return nil, err
			}
			return map[string]*experiments.Table{
				"table3": experiments.TableIII(), "copybw": experiments.CopyBandwidth(),
				"copysizes": experiments.CopyTransferSizes(), "dlrm": r.Table(),
			}, nil
		}},
	}
}

// suiteTally collects what one suite pass delivered, one slot per cell in
// submission order. Results complete on scheduler workers in any order;
// sum folds them in slot order, because float sums taken in completion
// order would differ from run to run in their last bits and the sim.*
// figures are compared for equality.
type suiteTally struct {
	mu      sync.Mutex
	results []*engine.Result
	// kernels maps a model name to its kernel count, for turning a
	// delivered result's iterations into stepper events.
	kernels map[string]int
}

// slot reserves the next cell's place (drivers submit cells one by one)
// and returns the function that fills it.
func (t *suiteTally) slot() func(*engine.Result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := len(t.results)
	t.results = append(t.results, nil)
	return func(r *engine.Result) {
		t.mu.Lock()
		t.results[i] = r
		t.mu.Unlock()
	}
}

// sum folds the collected results into r.
func (t *suiteTally) sum(r *rep) {
	for _, res := range t.results {
		if res == nil {
			continue // a cell that failed; its driver reported the error
		}
		r.ops++
		r.cells++
		r.steps += int64(len(res.Iterations)) * int64(t.kernels[res.ModelName]+1)
		for _, it := range res.Iterations {
			r.simS += it.Time
		}
		r.sim.addEngine(res)
	}
}

// suiteKernels builds the model-name → kernel-count table for every model
// the suite's drivers simulate. Kernel counts do not depend on batch size,
// so the smallest batch keeps this out of the way of setup_s.
func suiteKernels() map[string]int {
	k := map[string]int{}
	for _, m := range []*models.Model{
		models.DenseNet(264, 1), models.ResNet(200, 1), models.VGG(416, 1), models.VGG(116, 1),
	} {
		k[m.Name] = len(m.Kernels)
	}
	tc := models.DefaultTransformerConfig()
	tc.BatchSize = 1
	tm := models.Transformer(tc)
	k[tm.Name] = len(tm.Kernels)
	lc := models.DefaultLSTMConfig()
	lc.SeqLen, lc.BatchSize = 512, 1 // the sequence length BeyondCNNs runs
	lm := models.LSTM(lc)
	k[lm.Name] = len(lm.Kernels)
	return k
}

// suitePass is the outcome of running every driver plus CheckClaims once.
type suitePass struct {
	csv          map[string]string // results-file stem → CSV text
	claimsFailed int
	driverS      map[string]float64 // per-driver host seconds (key → s)
}

// runSuite executes the whole evaluation through one scheduler: every
// driver in cafigures' order, then CheckClaims. The order is not seeded:
// with two workers it decides which driver pays for the cells several
// share and how long each batch's tail is, a 5% swing that is a property
// of the order, not of the code under test. On the traced run each
// driver gets a span and each completed cell a mark under it.
func runSuite(sc scale, s *sched.Scheduler, tally *suiteTally, sp *spans, parent int) (*suitePass, error) {
	// cur is the span of the driver whose cells are completing; drivers
	// run one after another, so the workers' marks land under the right one.
	var cur atomic.Int64
	opts := experiments.Options{
		Iterations: sc.suiteIters, Scale: sc.batchDiv, Sched: s,
		Instrument: func(string, *engine.Config) func(*engine.Result) error {
			fill := tally.slot()
			return func(r *engine.Result) error {
				fill(r)
				sp.end(sp.begin("sched.cell", int(cur.Load())), 1)
				return nil
			}
		},
	}
	pass := &suitePass{csv: map[string]string{}, driverS: map[string]float64{}}
	for _, d := range suiteDrivers() {
		id := sp.begin("experiments."+d.key, parent)
		cur.Store(int64(id))
		t0 := time.Now()
		tabs, err := d.run(opts)
		pass.driverS[d.key] = time.Since(t0).Seconds()
		sp.end(id, 1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.key, err)
		}
		for name, tab := range tabs {
			pass.csv[name] = tab.CSV()
		}
	}
	id := sp.begin("experiments.claims", parent)
	cur.Store(int64(id))
	t0 := time.Now()
	claims, err := experiments.CheckClaims(opts)
	pass.driverS["claims"] = time.Since(t0).Seconds()
	sp.end(id, 1)
	if err != nil {
		return nil, fmt.Errorf("claims: %w", err)
	}
	for _, c := range claims {
		if !c.Pass {
			pass.claimsFailed++
		}
	}
	return pass, nil
}

// loadReferenceCSVs reads results/*.csv, the committed paper-scale
// reference the suite's tables must reproduce byte for byte.
func loadReferenceCSVs(dir string) (map[string]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no reference CSVs under %s (run from the repository root)", dir)
	}
	ref := map[string]string{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		name := filepath.Base(p)
		ref[name[:len(name)-len(".csv")]] = string(b)
	}
	return ref, nil
}

// csvMismatches counts reference tables the pass did not reproduce.
func csvMismatches(ref, got map[string]string) int {
	n := 0
	for name, want := range ref {
		if got[name] != want {
			n++
		}
	}
	return n
}

// fleetConfig is one cluster run on the benchmark's fleet platform — a
// deliberately tight fast tier, so tenants contend — with the n jobs of
// cluster.BenchMix submitted in a seeded order. The mix itself is the
// same on every seed — one OS:page tenant costs two hundred CA steps, so
// a reseeded mix is a different amount of work, not another sample of the
// same work. What the seed changes is job indices, arrival ties and with
// them the dispatch interleaving.
func fleetConfig(seed int64, n, iters int) cluster.Config {
	jobs := cluster.BenchMix(defaultSeed, n)
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return cluster.Config{Jobs: jobs, Engine: engine.Config{
		FastCapacity: 16 * units.MB, SlowCapacity: 2 * units.GB, Iterations: iters}}
}

// buildJobs constructs every job's model up front, so that a workload's
// setup pays for the builds and its body measures the cluster alone.
func buildJobs(cfg *cluster.Config) error {
	for i := range cfg.Jobs {
		m, err := cfg.Jobs[i].Build()
		if err != nil {
			return err
		}
		cfg.Jobs[i].Model = m
	}
	return nil
}
