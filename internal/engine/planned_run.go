package engine

import (
	"fmt"

	"cachedarrays/internal/dm"
	"cachedarrays/internal/models"
	"cachedarrays/internal/planner"
)

// RunPlanned executes a training run under a static, ahead-of-time plan
// (the AutoTM-style "Compiler" row of Table I): every tensor's residency
// was decided offline; the runtime just executes the placements and the
// planned offload/restore copies. No hints, no adaptive policy.
//
// If the plan is nil, one is built from the model and the DRAM budget.
func RunPlanned(model *models.Model, plan *planner.Plan, cfg Config) (*Result, error) {
	return drive(newPlannedRun(model, plan, cfg, nil))
}

// plannedBackend is the AutoTM-style memory system: the data manager
// driven by a static plan instead of a policy.
type plannedBackend struct {
	*core
	plan *planner.Plan
	m    *dm.Manager
	objs []*dm.Object

	// Planned offload and restore points indexed by kernel.
	offloadAt [][]int
	restoreAt [][]int

	// fetchFailures counts placements fragmentation defeated.
	fetchFailures int64
}

func newPlannedRun(model *models.Model, plan *planner.Plan, cfg Config, env *Env) (*run, error) {
	return newRun(model, "AutoTM:plan", cfg, env, func(c *core) (backend, error) {
		m, err := newManager(c.p, c.cfg, env)
		if err != nil {
			return nil, err
		}
		if plan == nil {
			// Reserve a little headroom for allocator alignment slack.
			budget := resolveCapacity(c.cfg.FastCapacity, c.p.Fast.Capacity) * 97 / 100
			plan = planner.Build(model, budget, planner.DefaultCostModel())
		}
		if len(plan.Placement) != len(model.Tensors) {
			return nil, fmt.Errorf("engine: plan covers %d tensors, model has %d",
				len(plan.Placement), len(model.Tensors))
		}
		m.RegisterMetrics(c.reg)
		b := &plannedBackend{core: c, plan: plan, m: m,
			objs:      make([]*dm.Object, len(model.Tensors)),
			offloadAt: make([][]int, len(model.Kernels)),
			restoreAt: make([][]int, len(model.Kernels)),
		}
		for id, pl := range plan.Placement {
			if pl == planner.Offload {
				b.offloadAt[plan.OffloadAfter[id]] = append(b.offloadAt[plan.OffloadAfter[id]], id)
				b.restoreAt[plan.RestoreBefore[id]] = append(b.restoreAt[plan.RestoreBefore[id]], id)
			}
		}
		return b, nil
	})
}

// place puts a tensor on its planned tier, falling back to slow
// memory if fragmentation defeats the plan (counted as a fetch
// failure — a real static system would crash or re-plan here).
func (b *plannedBackend) place(id int) error {
	class := dm.Slow
	if b.plan.Placement[id] != planner.SlowAlways {
		class = dm.Fast
	}
	o, err := b.m.NewObject(b.model.Tensors[id].Bytes, class)
	if err == dm.ErrExhausted && class == dm.Fast {
		b.fetchFailures++
		o, err = b.m.NewObject(b.model.Tensors[id].Bytes, dm.Slow)
	}
	if err != nil {
		return err
	}
	b.objs[id] = o
	return nil
}

// park moves an offloaded tensor's primary to slow memory (the
// planned synchronous eviction copy).
func (b *plannedBackend) park(o *dm.Object) error {
	m := b.m
	x := m.GetPrimary(o)
	if !m.In(x, dm.Fast) {
		return nil
	}
	y, err := m.Allocate(dm.Slow, o.Size())
	if err != nil {
		return err
	}
	m.CopyTo(y, x)
	if err := m.SetPrimary(o, y); err != nil {
		return err
	}
	m.Free(x)
	return nil
}

// restore brings it back (the planned prefetch copy).
func (b *plannedBackend) restore(o *dm.Object) error {
	m := b.m
	x := m.GetPrimary(o)
	if !m.In(x, dm.Slow) {
		return nil
	}
	y, err := m.Allocate(dm.Fast, o.Size())
	if err != nil {
		b.fetchFailures++
		return nil // plan defeated by fragmentation; read in place
	}
	m.CopyTo(y, x)
	if err := m.SetPrimary(o, y); err != nil {
		return err
	}
	m.Free(x)
	return nil
}

// kernel runs the planned restores (one move-stall window from t0 with
// the transient placements), the kernel, then the planned offloads and
// retirements (a second window).
func (b *plannedBackend) kernel(ki int, t0 float64, it *IterationMetrics) error {
	p, m, model := b.p, b.m, b.model
	k := &model.Kernels[ki]
	// Planned restores land immediately before the kernel
	// that reuses the tensor.
	for _, id := range b.restoreAt[ki] {
		if b.objs[id] != nil && !b.objs[id].Retired() {
			if err := b.restore(b.objs[id]); err != nil {
				return err
			}
		}
	}
	moveStall := p.Clock.Now() - t0
	it.MoveTime += moveStall
	b.rm.stall(moveStall)

	var readBytes, writeBytes [2]int64
	rf := k.EffectiveReadFactor()
	for _, id := range k.Reads {
		f := 1.0
		if amplified(model.Tensors[id].Kind) {
			f = rf
		}
		readBytes[m.GetPrimary(b.objs[id]).Class()] += int64(float64(b.objs[id].Size()) * f)
	}
	for _, id := range k.Writes {
		writeBytes[m.GetPrimary(b.objs[id]).Class()] += b.objs[id].Size()
	}
	kt := kernelTime(p, k.FLOPs, readBytes, writeBytes)
	p.Clock.Advance(kt)
	it.ComputeTime += kt
	b.rm.kernel(kt)

	moveStart := p.Clock.Now()
	for _, id := range b.offloadAt[ki] {
		if b.objs[id] != nil && !b.objs[id].Retired() {
			if err := b.park(b.objs[id]); err != nil {
				return err
			}
		}
	}
	for _, id := range b.sched.RetireAfter[ki] {
		m.DestroyObject(b.objs[id])
		b.objs[id] = nil
	}
	moveStall = p.Clock.Now() - moveStart
	it.MoveTime += moveStall
	b.rm.stall(moveStall)
	return nil
}

func (b *plannedBackend) resident() int64 {
	return b.m.UsedBytes(dm.Fast) + b.m.UsedBytes(dm.Slow)
}

// collect has nothing to do: the plan destroys tensors at their last use.
func (b *plannedBackend) collect(*IterationMetrics) {}

func (b *plannedBackend) settle() error {
	if b.cfg.CheckInvariants {
		if err := b.m.CheckInvariants(); err != nil {
			return err
		}
	}
	b.m.Defrag(dm.Fast)
	b.m.Defrag(dm.Slow)
	return nil
}

func (b *plannedBackend) finish(res *Result) error {
	res.Policy.FetchFailures = b.fetchFailures
	res.DM = b.m.Stats()
	return nil
}
