package engine

import (
	"errors"
	"fmt"

	"cachedarrays/internal/alloc"
	"cachedarrays/internal/memsim"
	"cachedarrays/internal/models"
	"cachedarrays/internal/pagemig"
	"cachedarrays/internal/policy"
	"cachedarrays/internal/tracing"
)

// Stepper is the event-driven core of a run: every mode is one schedule
// walk (the unexported run type) over a per-mode memory backend, expressed
// as a sequence of discrete events — one kernel with its surrounding
// hints and annotations, or one end-of-iteration boundary (drain, GC,
// defrag, audits) — that a driver dispatches one at a time. Run to
// completion (Drive) this is the solo run; dispatched by the cluster
// simulator, many jobs interleave their events on one shared platform
// under a single virtual clock.
type Stepper interface {
	// Step executes the run's next event and returns the virtual time at
	// which the job can next run — the global clock after the event, i.e.
	// the job's next-event time in a timestamp-ordered dispatch loop.
	Step() (float64, error)
	// Done reports whether every event has been executed.
	Done() bool
	// Finish finalizes and returns the result. Call exactly once, after
	// Done; it aggregates the measured iterations, embeds trace totals
	// and flushes metrics.
	Finish() (*Result, error)
}

// ErrUnknownMode is returned by NewStepper for a mode name it does not
// recognize (the scheduler normalizes aliases before retrying).
var ErrUnknownMode = errors.New("engine: unknown mode")

// Env is the execution environment a cluster dispatch loop shares between
// the steppers it multiplexes. A nil Env (the solo path) makes each
// stepper build its own platform. Either way a stepper attaches
// its registry and checker to the platform's clock as observers and
// detaches them at Finish.
type Env struct {
	// Platform, when non-nil, is the shared platform every tenant runs
	// on. The owner builds and configures it (movement discipline,
	// capacities); steppers must not.
	Platform *memsim.Platform
	// FastQuota/SlowQuota, when non-nil, arbitrate the shared device
	// capacity between tenants: every tenant's allocator is wrapped so
	// the aggregate bytes held can never exceed the device, and a tenant
	// squeezed by its neighbours sees ErrExhausted exactly as it would on
	// a smaller device.
	FastQuota *alloc.Quota
	SlowQuota *alloc.Quota
	// Tracer, when non-nil, is the owner-managed shared recorder (the
	// cluster's tenant-tagging mux) the owner already attached to the
	// platform. Traced steppers emit into it instead of attaching a
	// private one, and leave their events out of their own Result — the
	// owner assembles the multiplexed trace.
	Tracer *tracing.Recorder
	// Traffic, when Tracer is set, returns the device read/write bytes
	// (fast read, fast write, slow read, slow write) the owner attributed
	// to the currently-dispatched tenant — the per-tenant replacement for
	// the whole-platform counters a solo run embeds in its trace totals.
	Traffic func() (fr, fw, sr, sw int64)
}

// shared reports whether steppers run on an owner-managed platform.
func (e *Env) shared() bool { return e != nil && e.Platform != nil }

// acquire returns the run's platform: the shared one, or a fresh one
// built from cfg.
func (e *Env) acquire(cfg Config) *memsim.Platform {
	if e.shared() {
		return e.Platform
	}
	return newPlatform(cfg)
}

// newPlatform builds the platform a run with the resolved cfg executes
// on, movement discipline included.
func newPlatform(cfg Config) *memsim.Platform {
	clock := &memsim.Clock{}
	fast := memsim.NewDevice("dram", memsim.DRAM,
		resolveCapacity(cfg.FastCapacity, memsim.DefaultFastCapacity), memsim.DRAMProfile())
	slowProfile := memsim.NVRAMProfile()
	slowName := "nvram"
	if cfg.SlowTier == "cxl" {
		slowProfile = memsim.CXLProfile()
		slowName = "cxl"
	}
	slow := memsim.NewDevice(slowName, memsim.NVRAM,
		resolveCapacity(cfg.SlowCapacity, memsim.DefaultSlowCapacity), slowProfile)
	copier := memsim.NewCopyEngine(clock, cfg.CopyThreads)
	copier.Async = cfg.AsyncMovement
	if cfg.AsyncMovement {
		// A mover that nothing blocks on is free to pace its write
		// streams at the destination's optimal parallelism (§V-d).
		copier.WriteThreadCap = slowProfile.WritePeakThreads
	}
	return &memsim.Platform{
		Clock:   clock,
		Fast:    fast,
		Slow:    slow,
		Copier:  copier,
		Compute: memsim.DefaultCompute(),
	}
}

// limitFast wraps a with the shared fast-tier budget, if any.
func (e *Env) limitFast(a alloc.Allocator) alloc.Allocator {
	if e == nil {
		return a
	}
	return alloc.Limit(a, e.FastQuota)
}

// limitSlow wraps a with the shared slow-tier budget, if any.
func (e *Env) limitSlow(a alloc.Allocator) alloc.Allocator {
	if e == nil {
		return a
	}
	return alloc.Limit(a, e.SlowQuota)
}

// NewPlatform builds the platform a run with cfg executes on, after
// resolving cfg's defaults: the cluster simulator's shared platform.
func NewPlatform(cfg Config) *memsim.Platform {
	return newPlatform(cfg.withDefaults())
}

// Drive runs a stepper to completion: the solo execution path, and the
// proof obligation the cluster's N=1 property test leans on — a driven
// stepper is the run.
func Drive(st Stepper) (*Result, error) {
	for !st.Done() {
		if _, err := st.Step(); err != nil {
			return nil, err
		}
	}
	return st.Finish()
}

// Modes lists the canonical operating-mode names NewStepper accepts, in
// presentation order: the one list help texts and error messages quote.
var Modes = []string{"2LM:0", "2LM:M", "CA:0", "CA:L", "CA:LM", "CA:LMP",
	AdaptiveOG, AdaptiveTG, AdaptiveOGTG, "OS:page", "AutoTM"}

// NewStepper builds the event-driven form of a run in the given canonical
// operating mode (one of Modes). It is the single mode dispatcher
// underneath sched.RunMode and the cluster simulator.
func NewStepper(m *models.Model, mode string, cfg Config, env *Env) (Stepper, error) {
	switch mode {
	case "2LM:0":
		return new2LMRun(m, false, cfg, env)
	case "2LM:M":
		return new2LMRun(m, true, cfg, env)
	case "CA:0":
		return newCARun(m, mode, policy.CAZero, cfg, env, nil)
	case "CA:L":
		return newCARun(m, mode, policy.CAL, cfg, env, nil)
	case "CA:LM":
		return newCARun(m, mode, policy.CALM, cfg, env, nil)
	case "CA:LMP":
		return newCARun(m, mode, policy.CALMP, cfg, env, nil)
	case AdaptiveOG, AdaptiveTG, AdaptiveOGTG:
		return newAdaptiveRun(m, mode, cfg, env)
	case "OS:page":
		return newPageMigRun(m, pagemig.DefaultConfig(), cfg, env)
	case "AutoTM":
		return newPlannedRun(m, nil, cfg, env)
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownMode, mode)
	}
}
