package engine

import (
	"fmt"

	"cachedarrays/internal/memsim"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/trace"
	"cachedarrays/internal/tracing"
)

// backend is one mode's memory system: what differs between CachedArrays,
// 2LM, OS page migration and AutoTM plans. The run walks the schedule and
// owns every measurement window; a backend only places tensors, executes
// kernels against its memory system and cleans up at iteration boundaries.
type backend interface {
	// place allocates tensor id: the persistent tensors at setup, a
	// transient immediately before the first kernel that uses it.
	place(id int) error
	// kernel executes kernel ki — hints or planned moves, the kernel's
	// memory traffic and compute, retirements — advancing the clock and
	// accumulating ComputeTime and MoveTime into it. t0 is the clock
	// before the kernel's transients were placed, so a backend whose
	// placements move data charges one stall window from t0.
	kernel(ki int, t0 float64, it *IterationMetrics) error
	// collect finishes the iteration's measured work (drain in-flight
	// moves, collect garbage) and records it.GCTime and it.Cache. A
	// backend's collector and cache change only inside a window, so the
	// delta since its previous collect is this iteration's.
	collect(it *IterationMetrics)
	// settle runs between measurement windows, after the iteration was
	// recorded: mode-specific invariants, then defragmentation.
	settle() error
	// resident reports the resident heap bytes.
	resident() int64
	// finish contributes the mode's statistics and trace totals to res.
	finish(res *Result) error
}

// core is the run state a backend may read: the workload, the platform
// and the instrumentation sinks. The run fills it before building the
// backend; rm is set once the backend has registered its own series.
type core struct {
	model *models.Model
	sched *trace.Schedule
	// persistent[id] reports whether tensor id outlives iterations.
	persistent []bool
	cfg        Config
	p          *memsim.Platform
	// reg is cfg.Metrics, the registry every layer's series register
	// into; nil (every method a no-op) on an unmetered run.
	reg *metrics.Registry
	rm  runMetrics
	// tr is the execution-trace recorder; nil (every method a no-op)
	// unless the backend installs one while it is built.
	tr *tracing.Recorder
}

// run is the event-driven form of every mode: construction performs setup
// (instrumentation wiring, persistent-tensor placement — the paper
// pre-allocates and first-touches all heaps before measuring, so setup
// traffic is excluded from iteration metrics), every Step executes one
// kernel event or one iteration boundary, and Finish produces the Result.
// Dispatched by the cluster simulator its events interleave with other
// tenants' on the shared platform.
type run struct {
	core
	b   backend
	res *Result

	// iter counts completed iterations and ki the current iteration's
	// executed kernels: ki is zero exactly between iterations, because a
	// Step that opens an iteration also runs its first kernel (or, for a
	// model without kernels, closes it).
	iter, ki           int
	it                 IterationMetrics
	iterStart          float64
	fastBase, slowBase memsim.Counters

	finished bool
}

// newRun performs the setup every mode shares and asks build for the
// mode's backend. mode names the Result.
func newRun(model *models.Model, mode string, cfg Config, env *Env,
	build func(*core) (backend, error)) (*run, error) {

	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	p := env.acquire(cfg)
	sched := trace.New(model)
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	r := &run{
		core: core{model: model, sched: sched, cfg: cfg, p: p, reg: cfg.Metrics,
			persistent: make([]bool, len(model.Tensors))},
		res: &Result{ModelName: model.Name, Mode: mode, Config: cfg},
	}
	r.res.recordPeaks(p)
	// The metrics registry threads through every layer with the tracer's
	// nil-safety discipline: every layer registers its series, the clock
	// drives sampling, and a nil registry records nothing and observes
	// nothing (the guard keeps a nil *Registry out of the interface).
	RegisterPlatformMetrics(r.reg, p)
	if r.reg.Enabled() {
		p.Clock.Observe(r.reg)
	}
	b, err := build(&r.core)
	if err != nil {
		return nil, err
	}
	r.b = b
	r.rm = newRunMetrics(r.reg)

	for _, id := range sched.Persistent {
		r.persistent[id] = true
		if err := b.place(id); err != nil {
			return nil, fmt.Errorf("engine: allocating persistent tensor %s: %w",
				model.Tensors[id].Name, err)
		}
	}
	return r, nil
}

// drive runs a freshly built run to completion: the Run* entry points.
func drive(r *run, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return Drive(r)
}

// Done reports whether every iteration has completed.
func (r *run) Done() bool { return r.iter >= r.cfg.Iterations }

// Step executes the next event: one kernel (with its transient
// allocations and whatever the backend does around it) or one iteration
// boundary.
func (r *run) Step() (float64, error) {
	if r.Done() {
		return r.p.Clock.Now(), fmt.Errorf("engine: step after run completed")
	}
	if r.ki == 0 {
		r.beginIter()
	}
	var err error
	if r.ki < len(r.model.Kernels) {
		err = r.kernelStep()
	} else {
		err = r.endIter()
	}
	return r.p.Clock.Now(), err
}

// beginIter opens an iteration's measurement window.
func (r *run) beginIter() {
	r.tr.BeginIter(r.iter)
	r.iterStart = r.p.Clock.Now()
	r.fastBase, r.slowBase = r.p.Fast.Counters(), r.p.Slow.Counters()
	r.it = IterationMetrics{}
}

// kernelStep places the transients whose first use is kernel r.ki, runs
// the kernel on the backend and samples the heap. The kernel context is
// set before placement so allocation events carry it, and cleared after
// sampling.
func (r *run) kernelStep() error {
	k := &r.model.Kernels[r.ki]
	r.tr.BeginKernel(r.ki, k.Name)
	t0 := r.p.Clock.Now()
	for _, id := range r.sched.AllocBefore[r.ki] {
		if err := r.b.place(id); err != nil {
			return fmt.Errorf("engine: iter %d kernel %s: allocating %s: %w",
				r.iter, k.Name, r.model.Tensors[id].Name, err)
		}
	}
	if err := r.b.kernel(r.ki, t0, &r.it); err != nil {
		return fmt.Errorf("engine: iter %d kernel %s: %w", r.iter, k.Name, err)
	}
	used := r.b.resident()
	if used > r.res.PeakHeap {
		r.res.PeakHeap = used
	}
	// Fig. 3 plots the heap over the last (steady-state) iteration.
	if r.cfg.SampleHeap && r.iter == r.cfg.Iterations-1 {
		r.res.HeapSamples = append(r.res.HeapSamples,
			HeapSample{Time: r.p.Clock.Now() - r.iterStart, Used: used})
	}
	r.tr.EndKernel()
	r.ki++
	return nil
}

// endIter closes the iteration's window and records it, then lets the
// backend settle. The paper's procedure is to invoke the GC and
// defragment the heaps after every iteration (§IV-A): the GC pause is
// measured, defragmentation happens between the windows.
func (r *run) endIter() error {
	r.b.collect(&r.it)
	r.it.Time = r.p.Clock.Now() - r.iterStart
	r.rm.iter(r.it.Time)
	r.it.Fast = r.p.Fast.Counters().Sub(r.fastBase)
	r.it.Slow = r.p.Slow.Counters().Sub(r.slowBase)
	r.res.Iterations = append(r.res.Iterations, r.it)
	r.tr.Iter(r.iter, r.iterStart, r.p.Clock.Now())
	if err := r.b.settle(); err != nil {
		return fmt.Errorf("engine: after iter %d: %w", r.iter, err)
	}
	r.iter++
	r.ki = 0
	return nil
}

// Finish finalizes the run and returns the Result. The observers the run
// attached (checker, registry) leave the clock here, so nothing of a
// finished run is sampled or audited by a shared platform's later advances.
func (r *run) Finish() (*Result, error) {
	if !r.Done() {
		return nil, fmt.Errorf("engine: finish before run completed")
	}
	if r.finished {
		return nil, fmt.Errorf("engine: double finish")
	}
	r.finished = true
	if err := r.b.finish(r.res); err != nil {
		return nil, err
	}
	finishMetrics(r.reg, r.p.Clock, r.model.Name, r.res.Mode)
	r.res.aggregate()
	return r.res, nil
}
