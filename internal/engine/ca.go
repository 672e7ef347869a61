package engine

import (
	"fmt"

	"cachedarrays/internal/alloc"
	"cachedarrays/internal/dm"
	"cachedarrays/internal/faults"
	"cachedarrays/internal/gcsim"
	"cachedarrays/internal/invariants"
	"cachedarrays/internal/memsim"
	"cachedarrays/internal/models"
	"cachedarrays/internal/policy"
	"cachedarrays/internal/tracing"
)

// NVRAMOnly as a FastCapacity requests a zero-DRAM run (the right edge of
// Fig. 7). A plain zero means "paper default".
const NVRAMOnly = -1

// resolveCapacity maps the Config convention (0 = default, NVRAMOnly = 0
// bytes) to a concrete byte count.
func resolveCapacity(c, def int64) int64 {
	switch {
	case c == NVRAMOnly:
		return 0
	case c == 0:
		return def
	default:
		return c
	}
}

// RunCA executes a training run under the CachedArrays runtime in the
// given operating mode.
func RunCA(model *models.Model, mode policy.Mode, cfg Config) (*Result, error) {
	return drive(newCARun(model, mode.String(), mode, cfg, nil, nil))
}

// newManager builds the data manager with the configured heap allocator,
// wrapped with the environment's shared capacity budgets when tenants
// share the platform.
func newManager(p *memsim.Platform, cfg Config, env *Env) (*dm.Manager, error) {
	mk := func(capacity int64) (alloc.Allocator, error) {
		switch cfg.Allocator {
		case "", "firstfit":
			return alloc.NewFreeList(capacity, alloc.FirstFit), nil
		case "bestfit":
			return alloc.NewFreeList(capacity, alloc.BestFit), nil
		case "buddy":
			// Round capacity down to a power of two (the buddy
			// allocator's requirement); the lost tail models the
			// rounding a real deployment would accept.
			c := int64(1)
			for c*2 <= capacity {
				c *= 2
			}
			if capacity == 0 {
				return alloc.NewFreeList(0, alloc.FirstFit), nil
			}
			return alloc.NewBuddy(c, 0)
		default:
			return nil, fmt.Errorf("engine: unknown allocator %q", cfg.Allocator)
		}
	}
	fast, err := mk(p.Fast.Capacity)
	if err != nil {
		return nil, err
	}
	slow, err := mk(p.Slow.Capacity)
	if err != nil {
		return nil, err
	}
	return dm.NewWithAllocators(p, env.limitFast(fast), env.limitSlow(slow)), nil
}

// caBackend is the CachedArrays memory system: the data manager, a policy
// runtime (the plain Tiered for the paper modes, a wrapped adaptive stack
// for the CA:OG/CA:TG variants) and the deferred-death collector. It is
// the only backend the tracer, fault injector and invariant checker
// thread through.
type caBackend struct {
	*core
	pol    policy.Runtime
	gc     *gcsim.Collector
	m      *dm.Manager
	events *dm.EventLog
	inj    *faults.Injector
	chk    *invariants.Checker
	objs   []*dm.Object
	// sharedTrace marks that tr is the cluster's multiplexed recorder: the
	// run emits into it but does not own it — finish leaves the events
	// out of the Result (the owner assembles the full trace) and sources
	// the trace totals' device traffic from the owner's per-tenant
	// attribution instead of the whole-platform counters.
	sharedTrace bool
	traffic     func() (fr, fw, sr, sw int64)

	// gcSeen is the collector's cumulative pause at the previous collect.
	gcSeen float64
	// readyAt tracks, per tensor, when its in-flight asynchronous move
	// completes; kernels wait on their arguments' entries. Nil under
	// synchronous movement.
	readyAt map[int]float64
}

// newCARun builds a CachedArrays run under the switch set of mode. wrap,
// when non-nil, stacks adaptive layers on the static policy.
func newCARun(model *models.Model, name string, mode policy.Mode, cfg Config, env *Env,
	wrap func(*policy.Tiered, *core) policy.Runtime) (*run, error) {

	return newRun(model, name, cfg, env, func(c *core) (backend, error) {
		p := c.p
		m, err := newManager(p, c.cfg, env)
		if err != nil {
			return nil, err
		}
		gc := gcsim.New(m, p.Clock)
		pcfg := policy.ConfigFor(mode)
		pcfg.PreferCleanVictims = c.cfg.PreferCleanVictims
		base := policy.NewTieredConfig(m, pcfg, name, gc)
		var pol policy.Runtime = base
		if wrap != nil {
			pol = wrap(base, c)
		}
		b := &caBackend{core: c, pol: pol, gc: gc, m: m,
			objs: make([]*dm.Object, len(model.Tensors))}
		if c.cfg.TraceEvents > 0 {
			b.events = dm.NewEventLog(c.cfg.TraceEvents)
			m.SetEventLog(b.events)
		}
		// The execution-trace recorder threads through every layer; nil (the
		// default) records nothing and costs the instrumented paths a single
		// branch each.
		if c.cfg.Trace {
			if env.shared() && env.Tracer != nil {
				// The cluster already attached its mux (tagging events by
				// tenant) to the platform; this run only threads the shared
				// recorder through its own layers.
				c.tr = env.Tracer
				b.sharedTrace = true
				b.traffic = env.Traffic
			} else {
				c.tr = tracing.New(p.Clock.Now)
				p.Clock.Observe(c.tr)
				p.Copier.Tracer = c.tr
			}
			m.SetTracer(c.tr)
			pol.SetTracer(c.tr)
			gc.SetTracer(c.tr)
		}
		// The fault injector threads through the same layers as the tracer and
		// follows the same discipline: absent a schedule, every hook stays nil
		// and the run is byte-identical to an uninstrumented build.
		if c.cfg.FaultSpec != "" {
			fsched, err := faults.Parse(c.cfg.FaultSpec)
			if err != nil {
				return nil, fmt.Errorf("engine: %w", err)
			}
			b.inj = faults.New(fsched, p.Clock.Now)
			b.inj.SetTracer(c.tr)
			p.InjectFaults(b.inj)
			m.SetFaults(b.inj)
		}
		if c.cfg.CheckEveryAdvance {
			b.chk = invariants.New(m, p).WithPolicy(pol)
			p.Clock.Observe(b.chk)
		}
		m.RegisterMetrics(c.reg)
		pol.RegisterMetrics(c.reg)
		gc.RegisterMetrics(c.reg)
		if c.cfg.AsyncMovement {
			b.readyAt = make(map[int]float64, 64)
		}
		return b, nil
	})
}

func (b *caBackend) place(id int) error {
	t := &b.model.Tensors[id]
	o, err := b.pol.NewObject(t.Bytes)
	if err != nil {
		return err
	}
	b.objs[id] = o
	b.tr.Bind(o.ID(), t.Name, t.Bytes)
	return nil
}

// hint emits one semantic hint for tensor id; the policy may move data in
// response. With synchronous movement the application stalls here; with
// an asynchronous mover the copies queue and only the data dependency is
// recorded.
func (b *caBackend) hint(id int, write bool) {
	o := b.objs[id]
	if o == nil || o.Retired() {
		return
	}
	before := b.p.Copier.BusyUntil()
	if write {
		b.pol.WillWrite(o)
	} else {
		b.pol.WillRead(o)
	}
	// Record the dependency only when this hint actually queued movement
	// for this object; unrelated background writebacks do not block the
	// kernel.
	if after := b.p.Copier.BusyUntil(); b.readyAt != nil && after > before {
		b.readyAt[id] = after
	}
}

// kernel executes kernel ki: semantic hints, the roofline kernel time with
// its arguments pinned, and the post-kernel archive/retire annotations.
// Transient placement and the hints share one stall window from t0.
func (b *caBackend) kernel(ki int, t0 float64, it *IterationMetrics) error {
	p, m, pol, model := b.p, b.m, b.pol, b.model
	k := &model.Kernels[ki]
	for _, id := range k.Reads {
		b.hint(id, false)
	}
	for _, id := range k.Writes {
		b.hint(id, true)
	}
	// Lookahead: announce a future kernel's reads now, so an
	// asynchronous mover can stage them behind this kernel's
	// execution ("will read in the NEAR future", Table II).
	if la := b.cfg.HintLookahead; la > 0 && ki+la < len(model.Kernels) {
		for _, id := range model.Kernels[ki+la].Reads {
			b.hint(id, false)
		}
	}
	// The stall events carry the exact floats MoveTime
	// accumulates, in the same order, so tracing.Verify can
	// demand bit-exact equality per iteration; zero deltas
	// are skipped (x + 0 == x).
	hintStall := p.Clock.Now() - t0
	it.MoveTime += hintStall
	b.rm.stall(hintStall)
	if hintStall != 0 {
		b.tr.Stall("hint", 0, hintStall)
	}
	// Wait for this kernel's arguments to finish moving.
	if b.readyAt != nil {
		var need float64
		blocking := -1
		for _, id := range append(append([]int{}, k.Reads...), k.Writes...) {
			if t, ok := b.readyAt[id]; ok && t > need {
				need = t
				blocking = id
			}
		}
		if wait := need - p.Clock.Now(); wait > 0 {
			p.Clock.Advance(wait)
			it.MoveTime += wait
			b.rm.stall(wait)
			if b.tr.Enabled() {
				var obj uint64
				if blocking >= 0 && b.objs[blocking] != nil {
					obj = b.objs[blocking].ID()
				}
				b.tr.Stall("wait", obj, wait)
			}
		}
	}

	// Execute the kernel: primaries are pinned for its
	// duration (§III-C) and the roofline time is charged.
	var readBytes, writeBytes [2]int64
	rf := k.EffectiveReadFactor()
	for _, id := range k.Reads {
		o := b.objs[id]
		pol.Pin(o)
		// Kernel-internal re-reads of the data input
		// stream from wherever the primary lives — there
		// is no hardware cache to absorb them (unlike
		// 2LM). Gradients and weights stream once.
		f := 1.0
		if amplified(model.Tensors[id].Kind) {
			f = rf
		}
		readBytes[m.GetPrimary(o).Class()] += int64(float64(o.Size()) * f)
	}
	for _, id := range k.Writes {
		o := b.objs[id]
		pol.Pin(o)
		writeBytes[m.GetPrimary(o).Class()] += o.Size()
	}
	kt := kernelTime(p, k.FLOPs, readBytes, writeBytes)
	p.Clock.Advance(kt)
	it.ComputeTime += kt
	b.rm.kernel(kt)
	if b.tr.Enabled() {
		now := p.Clock.Now()
		b.tr.Kernel(now-kt, now,
			k.FLOPs/p.Compute.PeakFlops+p.Compute.LaunchOverhead)
		b.tr.KernelIO(p.Fast.Name, readBytes[0], writeBytes[0])
		b.tr.KernelIO(p.Slow.Name, readBytes[1], writeBytes[1])
	}
	for _, id := range k.Reads {
		pol.Unpin(b.objs[id])
	}
	for _, id := range k.Writes {
		pol.Unpin(b.objs[id])
	}

	// Post-kernel annotations.
	if !b.cfg.NoArchiveHints {
		for _, id := range b.sched.ArchiveAfter[ki] {
			pol.Archive(b.objs[id])
		}
	}
	for _, id := range b.sched.RetireAfter[ki] {
		pol.Retire(b.objs[id])
		b.objs[id] = nil
	}
	return nil
}

func (b *caBackend) resident() int64 {
	return b.m.UsedBytes(dm.Fast) + b.m.UsedBytes(dm.Slow)
}

// collect drains any in-flight asynchronous moves, then invokes the GC to
// clean up all temporary memory.
func (b *caBackend) collect(it *IterationMetrics) {
	if b.readyAt != nil {
		if wait := b.p.Copier.BusyUntil() - b.p.Clock.Now(); wait > 0 {
			b.p.Clock.Advance(wait)
			it.MoveTime += wait
			b.rm.stall(wait)
			b.tr.Stall("drain", 0, wait)
		}
		clear(b.readyAt) // every recorded move has landed
	}
	b.gc.Collect()
	pause := b.gc.Stats().PauseTime
	it.GCTime = pause - b.gcSeen
	b.gcSeen = pause
}

func (b *caBackend) settle() error {
	if b.cfg.CheckInvariants {
		if err := b.pol.CheckInvariants(); err != nil {
			return err
		}
		// Every transient must be nil or retired after the final GC.
		for id, o := range b.objs {
			if o != nil && !b.persistent[id] && !o.Retired() {
				return fmt.Errorf("transient tensor %s leaked", b.model.Tensors[id].Name)
			}
		}
	}
	if b.chk != nil {
		if err := b.chk.Err(); err != nil {
			return err
		}
		// The iteration boundary is a quiesce point: every region
		// must be bound and the policy accounting exact.
		if err := b.chk.CheckQuiesced(); err != nil {
			return err
		}
	}
	b.m.Defrag(dm.Fast)
	b.m.Defrag(dm.Slow)
	return nil
}

func (b *caBackend) finish(res *Result) error {
	p := b.p
	res.Policy = b.pol.Stats()
	res.DM = b.m.Stats()
	res.GC = b.gc.Stats()
	res.Faults = b.inj.Stats()
	if src, ok := b.pol.(policy.AdaptiveSource); ok {
		res.Adaptive = src.AdaptiveStats()
	}
	if b.chk != nil {
		p.Clock.Unobserve(b.chk)
		res.InvariantChecks = b.chk.Checks()
		if err := b.chk.Err(); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
	}
	if b.events != nil {
		res.Events = b.events.Events()
	}
	if b.tr.Enabled() {
		// Embed the run's authoritative aggregates as the trailing
		// event, making the trace self-contained: tracing.Verify
		// re-derives each of these from the event stream and demands
		// exact equality.
		moveByIter := make([]float64, len(res.Iterations))
		for i := range res.Iterations {
			moveByIter[i] = res.Iterations[i].MoveTime
		}
		fc, sc := p.Fast.Counters(), p.Slow.Counters()
		fr, fw, sr, sw := fc.ReadBytes, fc.WriteBytes, sc.ReadBytes, sc.WriteBytes
		if b.traffic != nil {
			// Shared platform: whole-platform counters mix every tenant's
			// traffic; use the owner's per-tenant attribution so this
			// lane's totals decompose this tenant's events exactly.
			fr, fw, sr, sw = b.traffic()
		}
		b.tr.EmitTotals(tracing.Totals{
			Copies:          res.DM.Copies,
			BytesFastToSlow: res.DM.BytesFastToSlow,
			BytesSlowToFast: res.DM.BytesSlowToFast,
			BytesWithinFast: res.DM.BytesWithinFast,
			BytesWithinSlow: res.DM.BytesWithinSlow,
			DefragMoves:     res.DM.DefragMoves,
			FastDevice:      p.Fast.Name,
			SlowDevice:      p.Slow.Name,
			FastReadBytes:   fr,
			FastWriteBytes:  fw,
			SlowReadBytes:   sr,
			SlowWriteBytes:  sw,
			MoveTimeByIter:  moveByIter,
			Async:           b.cfg.AsyncMovement,
		})
		if !b.sharedTrace {
			res.Trace = b.tr.Events()
		}
	}
	return nil
}
