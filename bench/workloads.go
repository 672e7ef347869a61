package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"cachedarrays/internal/cluster"
	"cachedarrays/internal/engine"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/sched"
	"cachedarrays/internal/trace"
	"cachedarrays/internal/tracing"
	"cachedarrays/internal/units"
)

// fleetSize is one cluster run: n BenchMix tenants for iters iterations.
type fleetSize struct{ n, iters int }

// scale fixes how much work each workload body does. The full scale is
// sized so that one body repetition takes a little over 3 s on the 2-core
// sandbox; the quick scale (batch ÷64, 2 iterations, 8 tenants) exists
// so the package's own test can run everything in seconds.
type scale struct {
	quick       bool
	batchDiv    int // divides every paper model's batch size
	suiteIters  int
	warmPasses  int
	warmFleet   []fleetSize // cluster runs memoized beside the suite
	soloCAIters int
	twolmIters  int
	ospageIters int
	autotmIters int
	fleet       []fleetSize
	obsIters    int // DenseNet CA:LMP under each observer
	obsOGTG     int // DenseNet CA:OGTG
	obsFleet    fleetSize
}

func fullScale() scale {
	return scale{
		batchDiv: 1, suiteIters: 4, warmPasses: 3,
		warmFleet:   []fleetSize{{128, 24}, {512, 24}},
		soloCAIters: 92, twolmIters: 6, ospageIters: 2, autotmIters: 6,
		fleet:    []fleetSize{{128, 400}, {512, 100}},
		obsIters: 10, obsOGTG: 5, obsFleet: fleetSize{128, 12},
	}
}

func quickScale() scale {
	return scale{
		quick: true, batchDiv: 64, suiteIters: 2, warmPasses: 1,
		warmFleet:   []fleetSize{{8, 2}},
		soloCAIters: 2, twolmIters: 2, ospageIters: 2, autotmIters: 2,
		fleet:    []fleetSize{{8, 2}, {16, 2}},
		obsIters: 2, obsOGTG: 2, obsFleet: fleetSize{8, 2},
	}
}

// simStats are exact simulated statistics summed over a repetition's
// results. They must be bit-identical across commits (sim.* metrics).
type simStats struct {
	IterS         float64
	SlowWriteB    int64
	Evictions     int64
	TwoLMHits     int64
	TwoLMAccesses int64
	MakespanS     float64
}

func (s *simStats) addEngine(r *engine.Result) {
	s.IterS += r.IterTime
	s.SlowWriteB += r.Slow.WriteBytes
	s.Evictions += r.Policy.Evictions
	s.TwoLMHits += r.Cache.Hits
	s.TwoLMAccesses += r.Cache.Accesses()
}

func (s *simStats) addCluster(r *cluster.Result) {
	s.MakespanS += r.Makespan
	for i := range r.Tenants {
		if tr := r.Tenants[i].Result; tr != nil {
			s.addEngine(tr)
		}
	}
}

// rep is the outcome of one repetition of a workload body.
type rep struct {
	ops, failed int     // simulations attempted / failed
	cells       int     // scheduler cells + memoized cluster runs completed
	steps       int64   // stepper events of the delivered results
	simS        float64 // simulated seconds of the delivered results
	sim         simStats
	// digests names every output with its sha256; two repetitions of one
	// run must agree, and non-suite workloads compare them to golden.json.
	// Results wait in engineOut/clusterOut and are digested by digestAll
	// once the clock has stopped: hashing is the benchmark's work, not the
	// simulator's.
	digests    map[string]string
	engineOut  map[string]*engine.Result
	clusterOut map[string]*cluster.Result
	// csvMismatch and claimsFailed are the suites' accuracy figures.
	csvMismatch  int
	claimsFailed int
	// layer carries per-layer counts the body itself observes.
	layer map[string]float64
}

func newRep() *rep {
	return &rep{digests: map[string]string{}, layer: map[string]float64{},
		engineOut: map[string]*engine.Result{}, clusterOut: map[string]*cluster.Result{}}
}

func (r *rep) digestAll() {
	for name, res := range r.engineOut {
		r.digests[name] = digestEngine(res)
	}
	for name, res := range r.clusterOut {
		r.digests[name] = digestCluster(res)
	}
	r.engineOut, r.clusterOut = nil, nil
}

func (r *rep) engineResult(name string, res *engine.Result, steps int64) {
	r.cells++
	r.steps += steps
	for _, it := range res.Iterations {
		r.simS += it.Time
	}
	r.sim.addEngine(res)
	r.engineOut[name] = res
}

func (r *rep) clusterResult(name string, res *cluster.Result) {
	r.ops += len(res.Tenants)
	r.steps += int64(res.Dispatches)
	r.simS += res.Makespan
	r.sim.addCluster(res)
	r.clusterOut[name] = res
}

// runCtx is what a workload sees of one benchmark run.
type runCtx struct {
	seed  int64
	sc    scale
	tmp   string            // scratch root inside the checkout
	ref   map[string]string // results/*.csv, loaded by the suites' setup
	procs int
}

// workload is one named set of inputs. setup's host time is setup_s; body
// is one timed repetition. sp is nil on the untraced run; on the traced
// run the body records spans and takes the composed form.
type workload struct {
	name string
	why  string
	// parallel marks workloads that need two CPUs to mean anything.
	parallel bool
	setup    func(c *runCtx) (any, error)
	body     func(c *runCtx, st any, sp *spans, root int) (*rep, error)
	teardown func(st any)
}

func workloads() []workload {
	return []workload{
		{name: "suite_cold", parallel: true,
			why:   "what users run (cafigures+cacheck) on an empty result cache: cache writes, lazy model builds, the slowest cell sets the time",
			setup: suiteColdSetup, body: suiteColdBody},
		{name: "suite_warm", parallel: true,
			why:   "the same suite and two cluster runs served from a filled on-disk cache: key hashing, disk load and decode, no simulation",
			setup: suiteWarmSetup, body: suiteWarmBody, teardown: suiteWarmTeardown},
		{name: "solo_ca", why: "paper-scale CachedArrays modes on bare serial steppers: engine, policy, dm, alloc, memsim with no hooks attached",
			setup: soloCASetup, body: soloBody},
		{name: "solo_baselines", why: "2LM, OS page migration and AutoTM steppers: twolm, pagemig and planner do the work, policy and dm little",
			setup: soloBaselinesSetup, body: soloBody},
		{name: "cluster_fleet", why: "128 and 512 tenants on one platform, uncached and uninstrumented: dispatch, quotas and a large working set",
			setup: fleetSetup, body: fleetBody},
		{name: "observed", why: "the solo and cluster engines with tracer, metrics and invariant checker attached: the hook layers dominate",
			setup: observedSetup, body: observedBody},
	}
}

// ---------------------------------------------------------------------------
// suite_cold / suite_warm

type suiteState struct {
	kernels map[string]int
	dir     string // suite_warm: the filled cache directory
}

func suiteColdSetup(c *runCtx) (any, error) {
	if !c.sc.quick { // shrunken models do not reproduce the references
		var err error
		if c.ref, err = loadReferenceCSVs("results"); err != nil {
			return nil, err
		}
	}
	return &suiteState{kernels: suiteKernels()}, nil
}

// suiteOnce runs every driver and CheckClaims through a fresh scheduler
// over a fresh Cache instance on dir, and folds the outcome into r.
func suiteOnce(c *runCtx, st *suiteState, dir string, r *rep, sp *spans, root int) (*sched.Scheduler, error) {
	cache, err := sched.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	s := &sched.Scheduler{Workers: 2, Cache: cache}
	tally := &suiteTally{kernels: st.kernels}
	pass, err := runSuite(c.sc, s, tally, sp, root)
	if err != nil {
		return nil, err
	}
	tally.sum(r)
	r.claimsFailed += pass.claimsFailed
	if c.ref != nil {
		r.csvMismatch += csvMismatches(c.ref, pass.csv)
	}
	for name, text := range pass.csv {
		r.digests[name+".csv"] = digestBytes([]byte(text))
	}
	for k, v := range pass.driverS {
		r.layer["experiments."+k+"_s"] += v
	}
	cs := cache.Stats()
	r.layer["sched.hits"] += float64(cs.Hits)
	r.layer["sched.misses"] += float64(cs.Misses)
	r.layer["sched.simulations"] += float64(s.Simulations())
	r.layer["sched.dedups"] += float64(s.Dedups())
	return s, nil
}

func suiteColdBody(c *runCtx, state any, sp *spans, root int) (*rep, error) {
	st := state.(*suiteState)
	dir, err := os.MkdirTemp(c.tmp, "cold-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := newRep()
	if _, err := suiteOnce(c, st, dir, r, sp, root); err != nil {
		return nil, err
	}
	return r, nil
}

// suiteWarmSetup fills one cache directory: a suite_cold pass plus the
// cluster runs the body will ask for again.
func suiteWarmSetup(c *runCtx) (any, error) {
	base, err := suiteColdSetup(c)
	if err != nil {
		return nil, err
	}
	st := base.(*suiteState)
	if st.dir, err = os.MkdirTemp(c.tmp, "warm-"); err != nil {
		return nil, err
	}
	s, err := suiteOnce(c, st, st.dir, newRep(), nil, -1)
	if err != nil {
		os.RemoveAll(st.dir)
		return nil, err
	}
	for _, f := range c.sc.warmFleet {
		cfg := fleetConfig(c.seed, f.n, f.iters)
		cfg.Sched = s
		if _, err := cluster.Run(cfg); err != nil {
			os.RemoveAll(st.dir)
			return nil, err
		}
	}
	return st, nil
}

func suiteWarmTeardown(state any) { os.RemoveAll(state.(*suiteState).dir) }

func suiteWarmBody(c *runCtx, state any, sp *spans, root int) (*rep, error) {
	st := state.(*suiteState)
	r := newRep()
	for p := 0; p < c.sc.warmPasses; p++ {
		pid := sp.begin("bench.warm_pass", root)
		s, err := suiteOnce(c, st, st.dir, r, sp, pid)
		if err != nil {
			return nil, err
		}
		for _, f := range c.sc.warmFleet {
			cfg := fleetConfig(c.seed, f.n, f.iters)
			cfg.Sched = s
			id := sp.begin(fmt.Sprintf("cluster.warm_get.n%d", f.n), pid)
			t0 := time.Now()
			res, err := cluster.Run(cfg)
			r.layer[fmt.Sprintf("cluster.warm_get_ms.n%d", f.n)] += time.Since(t0).Seconds() * 1e3
			sp.end(id, 1)
			if err != nil {
				return nil, err
			}
			r.cells++
			r.clusterResult(fmt.Sprintf("cluster-n%d", f.n), res)
		}
		// Every pass after the fill is served from disk; a simulation
		// here means the cache lost an entry.
		r.failed += int(s.Simulations())
		sp.end(pid, 1)
	}
	for k := range r.layer {
		r.layer[k] /= float64(c.sc.warmPasses)
	}
	return r, nil
}

// ---------------------------------------------------------------------------
// solo_ca / solo_baselines

// soloCell is one serial stepper run.
type soloCell struct {
	name  string
	build func() *models.Model
	mode  string
	cfg   engine.Config
	model *models.Model // built by setup
}

type soloState struct{ cells []soloCell }

// paperModel builds a Table III model with its batch divided by div.
func paperModel(pm models.PaperModel, div int) func() *models.Model {
	batch := pm.BatchSize / div
	if batch < 1 {
		batch = 1
	}
	switch pm.Name {
	case "DenseNet 264":
		return func() *models.Model { return models.DenseNet(264, batch) }
	case "ResNet 200":
		return func() *models.Model { return models.ResNet(200, batch) }
	case "VGG 416":
		return func() *models.Model { return models.VGG(416, batch) }
	case "VGG 116":
		return func() *models.Model { return models.VGG(116, batch) }
	}
	panic("bench: unknown paper model " + pm.Name)
}

// finishSoloSetup builds every cell's model and puts the cells in the
// seeded order.
func finishSoloSetup(c *runCtx, cells []soloCell) (any, error) {
	rand.New(rand.NewSource(c.seed)).Shuffle(len(cells), func(i, j int) {
		cells[i], cells[j] = cells[j], cells[i]
	})
	for i := range cells {
		cells[i].model = cells[i].build()
	}
	return &soloState{cells: cells}, nil
}

func soloCASetup(c *runCtx) (any, error) {
	var cells []soloCell
	for _, pm := range models.PaperLargeModels() {
		for _, mode := range []string{"CA:0", "CA:L", "CA:LM", "CA:LMP"} {
			cells = append(cells, soloCell{
				name: "large/" + pm.Name + "/" + mode, build: paperModel(pm, c.sc.batchDiv),
				mode: mode, cfg: engine.Config{Iterations: c.sc.soloCAIters}})
		}
	}
	// The small networks fit the socket's DRAM; a sixth of it makes the
	// same policy evict on nearly every allocation.
	tight := engine.Config{Iterations: c.sc.soloCAIters,
		FastCapacity: 30 * units.GB / int64(c.sc.batchDiv)}
	for _, pm := range models.PaperSmallModels() {
		cells = append(cells, soloCell{
			name: "small/" + pm.Name + "/CA:LM", build: paperModel(pm, c.sc.batchDiv),
			mode: "CA:LM", cfg: tight})
	}
	return finishSoloSetup(c, cells)
}

func soloBaselinesSetup(c *runCtx) (any, error) {
	var cells []soloCell
	large := models.PaperLargeModels()
	add := func(pm models.PaperModel, mode string, iters int) {
		cells = append(cells, soloCell{
			name: pm.Name + "/" + mode, build: paperModel(pm, c.sc.batchDiv),
			mode: mode, cfg: engine.Config{Iterations: iters}})
	}
	for _, pm := range large {
		add(pm, "2LM:0", c.sc.twolmIters)
		add(pm, "2LM:M", c.sc.twolmIters)
		add(pm, "AutoTM", c.sc.autotmIters)
	}
	add(large[2], "OS:page", c.sc.ospageIters) // VGG 416
	add(large[1], "OS:page", c.sc.ospageIters) // ResNet 200
	return finishSoloSetup(c, cells)
}

// driveSolo runs one cell's stepper to completion. With sp set it takes
// the composed form the traced run asks for — build, schedule, key, new
// stepper, steps (one aggregate span per simulated iteration), finish,
// put, get — and feeds the step-latency histogram.
func driveSolo(c *runCtx, cell *soloCell, sp *spans, root int, lt *layerTimes) (*engine.Result, int64, error) {
	model := cell.model
	cid := sp.begin("bench.cell", root)
	defer func() { sp.end(cid, 1) }()
	var key string
	if sp != nil {
		id := sp.begin("models.build", cid)
		model = cell.build()
		sp.end(id, 1)
		id = sp.begin("trace.schedule", cid)
		err := trace.New(model).Validate()
		sp.end(id, 1)
		if err != nil {
			return nil, 0, err
		}
		if sched.Cacheable(cell.cfg) {
			id = sp.begin("sched.key", cid)
			t0 := time.Now()
			key, err = sched.Key(model, cell.mode, cell.cfg)
			lt.key.add(time.Since(t0))
			sp.end(id, 1)
			if err != nil {
				return nil, 0, err
			}
		}
	}
	id := sp.begin("engine.new_stepper", cid)
	t0 := time.Now()
	st, err := engine.NewStepper(model, cell.mode, cell.cfg, nil)
	lt.newStepper.add(time.Since(t0))
	sp.end(id, 1)
	if err != nil {
		return nil, 0, err
	}
	var steps int64
	t0 = time.Now()
	if sp == nil {
		for !st.Done() {
			if _, err := st.Step(); err != nil {
				return nil, 0, err
			}
			steps++
		}
	} else {
		perIter := int64(len(model.Kernels) + 1)
		for !st.Done() {
			id := sp.begin("engine.step", cid)
			var n int64
			for ; n < perIter && !st.Done(); n++ {
				s0 := time.Now()
				_, err := st.Step()
				lt.step.add(time.Since(s0))
				if err != nil {
					sp.end(id, n)
					return nil, 0, err
				}
			}
			sp.end(id, n)
			steps += n
		}
	}
	lt.classRun(cell.mode, steps, time.Since(t0))
	id = sp.begin("engine.finish", cid)
	t0 = time.Now()
	res, err := st.Finish()
	lt.finish.add(time.Since(t0))
	sp.end(id, 1)
	if err != nil {
		return nil, 0, err
	}
	if key != "" {
		if err := lt.cacheRoundTrip(c.tmp, sp, cid, key, res); err != nil {
			return nil, 0, err
		}
	}
	return res, steps, nil
}

func soloBody(c *runCtx, state any, sp *spans, root int) (*rep, error) {
	st := state.(*soloState)
	r := newRep()
	lt := newLayerTimes()
	defer lt.close()
	for i := range st.cells {
		cell := &st.cells[i]
		r.ops++
		res, steps, err := driveSolo(c, cell, sp, root, lt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cell.name, err)
			r.failed++
			continue
		}
		r.engineResult(cell.name, res, steps)
	}
	r.failed += lt.cacheFail
	lt.into(r.layer)
	return r, nil
}

// ---------------------------------------------------------------------------
// cluster_fleet

type fleetState struct{ cfgs []cluster.Config }

// fleetSetup generates the job mixes and builds their models.
func fleetSetup(c *runCtx) (any, error) {
	st := &fleetState{}
	for _, f := range c.sc.fleet {
		cfg := fleetConfig(c.seed, f.n, f.iters)
		if err := buildJobs(&cfg); err != nil {
			return nil, err
		}
		st.cfgs = append(st.cfgs, cfg)
	}
	return st, nil
}

func fleetBody(c *runCtx, state any, sp *spans, root int) (*rep, error) {
	st := state.(*fleetState)
	r := newRep()
	for _, cfg := range st.cfgs {
		n := len(cfg.Jobs)
		id := sp.begin(fmt.Sprintf("cluster.run.n%d", n), root)
		t0 := time.Now()
		res, err := cluster.Run(cfg)
		dt := time.Since(t0)
		if err != nil {
			sp.end(id, 0)
			fmt.Fprintf(os.Stderr, "bench: cluster n=%d: %v\n", n, err)
			r.ops += n
			r.failed += n
			continue
		}
		sp.end(id, int64(res.Dispatches))
		r.cells++
		r.clusterResult(fmt.Sprintf("cluster-n%d", n), res)
		r.layer[fmt.Sprintf("cluster.step_ns.n%d", n)] = float64(dt.Nanoseconds()) / float64(res.Dispatches)
		r.layer["cluster.dispatches"] += float64(res.Dispatches)
	}
	return r, nil
}

// ---------------------------------------------------------------------------
// observed

type observedState struct {
	dense func() *models.Model
	model *models.Model
	fleet cluster.Config
}

func observedSetup(c *runCtx) (any, error) {
	build := paperModel(models.PaperLargeModels()[0], c.sc.batchDiv)
	fleet := fleetConfig(c.seed, c.sc.obsFleet.n, c.sc.obsFleet.iters)
	if err := buildJobs(&fleet); err != nil {
		return nil, err
	}
	return &observedState{dense: build, model: build(), fleet: fleet}, nil
}

// observedBody runs one cell bare and under each observer in turn, then a
// cluster with every observer attached. Every observed variant of the
// cell must produce the bare result (instrumentation cleared): observers
// watch, they never steer.
func observedBody(c *runCtx, state any, sp *spans, root int) (*rep, error) {
	st := state.(*observedState)
	r := newRep()
	lt := newLayerTimes()
	defer lt.close()
	var reg *metrics.Registry
	iters := c.sc.obsIters
	variants := []struct {
		name  string
		mode  string
		cfg   func() engine.Config
		after func(*engine.Result, int64) error
	}{
		{"bare", "CA:LMP", func() engine.Config { return engine.Config{Iterations: iters} }, nil},
		{"traced", "CA:LMP", func() engine.Config { return engine.Config{Iterations: iters, Trace: true} },
			func(res *engine.Result, steps int64) error {
				r.layer["tracing.events_per_step"] = float64(len(res.Trace)) / float64(steps)
				id := sp.begin("tracing.verify", root)
				t0 := time.Now()
				err := tracing.Verify(res.Trace)
				r.layer["tracing.verify_ms"] = ms(time.Since(t0))
				sp.end(id, int64(len(res.Trace)))
				if err != nil || sp == nil {
					return err
				}
				return jsonlRoundTrip(res.Trace, sp, root, r.layer)
			}},
		{"metered", "CA:LMP", func() engine.Config {
			reg = metrics.New(0.01)
			return engine.Config{Iterations: iters, Metrics: reg}
		}, func(*engine.Result, int64) error {
			r.layer["metrics.samples"] = float64(reg.Samples())
			if sp == nil {
				return nil
			}
			id := sp.begin("metrics.export", root)
			t0 := time.Now()
			err := reg.WriteCSV(io.Discard)
			if err == nil {
				err = metrics.WriteSummary(io.Discard, reg.Summarize())
			}
			r.layer["metrics.export_ms"] = ms(time.Since(t0))
			sp.end(id, 1)
			return err
		}},
		{"checked", "CA:LMP", func() engine.Config {
			return engine.Config{Iterations: iters, CheckEveryAdvance: true}
		}, func(res *engine.Result, _ int64) error {
			r.layer["invariants.checks"] = float64(res.InvariantChecks)
			if res.InvariantChecks == 0 {
				return fmt.Errorf("invariant checker never ran")
			}
			return nil
		}},
		{"adaptive", engine.AdaptiveOGTG, func() engine.Config { return engine.Config{Iterations: c.sc.obsOGTG} }, nil},
	}
	wall := map[string]float64{}
	var bare string // digest every observed CA:LMP run must reproduce
	for _, v := range variants {
		cell := soloCell{name: "DenseNet 264/" + v.mode + "/" + v.name, build: st.dense,
			mode: v.mode, cfg: v.cfg(), model: st.model}
		r.ops++
		vid := sp.begin("bench.variant."+v.name, root)
		t0 := time.Now()
		res, steps, err := driveSolo(c, &cell, sp, vid, lt)
		wall[v.name] = time.Since(t0).Seconds()
		sp.end(vid, steps)
		if err == nil && v.after != nil {
			err = v.after(res, steps)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cell.name, err)
			r.failed++
			continue
		}
		r.engineResult(cell.name, res, steps)
		if v.mode != "CA:LMP" {
			continue
		}
		if d := digestEngine(res); v.name == "bare" {
			bare = d
		} else if d != bare {
			fmt.Fprintf(os.Stderr, "bench: %s: the observer changed the result\n", cell.name)
			r.failed++
		}
	}
	if b := wall["bare"]; b > 0 {
		r.layer["tracing.overhead_x"] = wall["traced"] / b
		r.layer["metrics.overhead_x"] = wall["metered"] / b
		r.layer["invariants.overhead_x"] = wall["checked"] / b
	}

	// The cluster with everything attached: the O(N) OnAdvance fan-out
	// only exists here.
	cfg := st.fleet
	cfg.Engine.Trace = true
	cfg.Engine.CheckEveryAdvance = true
	cfg.TenantMetrics = func(string) *metrics.Registry { return metrics.New(0.01) }
	id := sp.begin("cluster.run.observed", root)
	res, err := cluster.Run(cfg)
	if err == nil {
		sp.end(id, int64(res.Dispatches))
		id = sp.begin("tracing.verify_lanes", root)
		t0 := time.Now()
		err = tracing.VerifyLanes(res.Trace)
		r.layer["tracing.verify_lanes_ms"] = ms(time.Since(t0))
		sp.end(id, int64(len(res.Trace)))
	} else {
		sp.end(id, 0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: observed cluster: %v\n", err)
		r.ops += len(cfg.Jobs)
		r.failed += len(cfg.Jobs)
	} else {
		r.cells++
		r.clusterResult("cluster-observed", res)
		r.layer["cluster.dispatches"] = float64(res.Dispatches)
	}
	r.failed += lt.cacheFail
	lt.into(r.layer)
	return r, nil
}

// jsonlRoundTrip writes a trace as JSONL into memory and reads it back.
func jsonlRoundTrip(events []tracing.Event, sp *spans, root int, out map[string]float64) error {
	var buf bytes.Buffer
	id := sp.begin("tracing.write_jsonl", root)
	t0 := time.Now()
	err := tracing.WriteJSONL(&buf, events)
	d := time.Since(t0)
	sp.end(id, int64(len(events)))
	if err != nil {
		return err
	}
	mb := float64(buf.Len()) / 1e6
	out["tracing.jsonl_write_mb_per_s"] = mb / d.Seconds()
	id = sp.begin("tracing.read_jsonl", root)
	t0 = time.Now()
	back, err := tracing.ReadJSONL(&buf)
	d = time.Since(t0)
	sp.end(id, int64(len(back)))
	if err != nil {
		return err
	}
	if len(back) != len(events) {
		return fmt.Errorf("trace round trip: wrote %d events, read %d", len(events), len(back))
	}
	out["tracing.jsonl_read_mb_per_s"] = mb / d.Seconds()
	return nil
}

// sameDigests reports the outputs that differ between two repetitions.
func sameDigests(a, b map[string]string) int {
	n := 0
	for k, v := range a {
		if b[k] != v {
			n++
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			n++
		}
	}
	return n
}
