package engine

import (
	"fmt"

	"cachedarrays/internal/alloc"
	"cachedarrays/internal/models"
	"cachedarrays/internal/pagemig"
)

// RunPageMig executes a training run under the OS page-tiering baseline
// (Table I's "Operating System" row — Nimble/HeMem-style): transparent,
// reactive migration of fixed-size pages by observed hotness, with no
// application hints. The application side gets the same best-case
// treatment as 2LM:M (eager frees, the CachedArrays allocator over a
// pre-allocated heap) so the comparison isolates the data-movement
// mechanism.
func RunPageMig(model *models.Model, pcfg pagemig.Config, cfg Config) (*Result, error) {
	return drive(newPageMigRun(model, pcfg, cfg, nil))
}

// pagemigBackend is the OS page-tiering memory system: a flat heap whose
// pages the migration daemon moves between tiers by observed hotness.
type pagemigBackend struct {
	*core
	pcfg  pagemig.Config
	mig   *pagemig.Migrator
	heap  alloc.Allocator
	addrs []int64

	// The migration daemon's epoch cadence spans iteration boundaries:
	// the counter deliberately persists across iterations.
	kernelsSinceEpoch int
}

func newPageMigRun(model *models.Model, pcfg pagemig.Config, cfg Config, env *Env) (*run, error) {
	if pcfg.PageSize == 0 {
		pcfg = pagemig.DefaultConfig()
	}
	return newRun(model, "OS:page", cfg, env, func(c *core) (backend, error) {
		mig, err := pagemig.New(c.p, pcfg)
		if err != nil {
			return nil, err
		}
		b := &pagemigBackend{core: c, pcfg: pcfg, mig: mig,
			heap:  env.limitSlow(alloc.NewFreeList(c.p.Slow.Capacity, alloc.FirstFit)),
			addrs: make([]int64, len(model.Tensors)),
		}
		if c.reg.Enabled() {
			c.reg.Gauge("pagemig_heap_used_bytes", func() float64 { return float64(b.heap.Used()) })
		}
		return b, nil
	})
}

func (b *pagemigBackend) place(id int) error {
	a, err := b.heap.Alloc(b.model.Tensors[id].Bytes)
	if err != nil {
		return fmt.Errorf("pagemig heap: %w", err)
	}
	b.addrs[id] = a
	return nil
}

func (b *pagemigBackend) kernel(ki int, _ float64, it *IterationMetrics) error {
	p, model := b.p, b.model
	k := &model.Kernels[ki]
	var memTime float64
	rf := k.EffectiveReadFactor()
	for _, id := range k.Reads {
		r := b.mig.Access(b.addrs[id], model.Tensors[id].Bytes, false, kernelAccess)
		memTime += r.Time
		if !amplified(model.Tensors[id].Kind) || rf <= 1 {
			continue
		}
		// Kernel-internal re-reads stream from wherever the
		// pages live, in the observed fast/slow proportion.
		extra := rf - 1
		memTime += p.Fast.Read(int64(float64(r.FastBytes)*extra), kernelAccess)
		memTime += p.Slow.Read(int64(float64(r.SlowBytes)*extra), kernelAccess)
	}
	for _, id := range k.Writes {
		memTime += b.mig.Access(b.addrs[id], model.Tensors[id].Bytes, true, kernelAccess).Time
	}
	kt := k.FLOPs/p.Compute.PeakFlops + p.Compute.LaunchOverhead
	if memTime > kt {
		kt = memTime
	}
	p.Clock.Advance(kt)
	it.ComputeTime += kt
	b.rm.kernel(kt)

	// The OS daemon wakes periodically; its migrations land
	// on the application's critical path (page faults, TLB
	// shootdowns). The copier has already advanced the
	// clock; account the duration as movement stall.
	b.kernelsSinceEpoch++
	if b.kernelsSinceEpoch >= b.pcfg.EpochKernels {
		epoch := b.mig.Epoch()
		it.MoveTime += epoch
		b.rm.stall(epoch)
		b.kernelsSinceEpoch = 0
	}

	for _, id := range b.sched.RetireAfter[ki] {
		b.heap.Free(b.addrs[id]) // eager, best-case resource management
	}
	return nil
}

func (b *pagemigBackend) resident() int64 { return b.heap.Used() }

// collect has nothing to do: frees are eager and the daemon runs on its
// own cadence.
func (b *pagemigBackend) collect(*IterationMetrics) {}

func (b *pagemigBackend) settle() error {
	if !b.cfg.CheckInvariants {
		return nil
	}
	if err := b.heap.CheckInvariants(); err != nil {
		return fmt.Errorf("pagemig heap: %w", err)
	}
	return nil
}

func (b *pagemigBackend) finish(*Result) error { return nil }
