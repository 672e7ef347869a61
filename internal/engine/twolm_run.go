package engine

import (
	"fmt"

	"cachedarrays/internal/alloc"
	"cachedarrays/internal/models"
	"cachedarrays/internal/twolm"
)

// Run2LM executes a training run in the paper's baseline configuration:
// Intel memory mode, where the whole heap lives in a flat NVRAM-backed
// physical address space fronted by a transparent direct-mapped DRAM cache.
//
// memOpt selects "2LM: M" (eagerly free dead tensors, so physical pages
// are reused and stay cache-resident) versus "2LM: Ø" (rely on deferred
// collection, so the heap grows monotonically until the collector runs —
// Fig. 3's rising curve).
//
// As in the paper, the baseline uses the CachedArrays allocator over a
// pre-allocated heap (§IV-A: "we use 2LM with the CachedArrays allocator
// as the baseline"), so allocation-side effects are identical across
// systems and only the data-movement mechanism differs.
func Run2LM(model *models.Model, memOpt bool, cfg Config) (*Result, error) {
	return drive(new2LMRun(model, memOpt, cfg, nil))
}

// twolmBackend is the 2LM memory system: a flat heap over the slow
// device's address space behind the transparent DRAM cache.
type twolmBackend struct {
	*core
	memOpt bool
	cache  *twolm.Cache
	heap   alloc.Allocator
	addrs  []int64
	live   []bool

	// Deferred-death list for the Ø mode (the GC the paper's Julia
	// runtime provides). Pause constants mirror gcsim.
	dead               []int
	collections, freed int64
	gcPauses           float64

	// The cumulative pause and cache statistics at the previous collect.
	gcSeen    float64
	cacheSeen twolm.Stats
}

const twolmPauseBase, twolmPausePerObject = 1e-3, 2e-7

func new2LMRun(model *models.Model, memOpt bool, cfg Config, env *Env) (*run, error) {
	mode := "2LM:0"
	if memOpt {
		mode = "2LM:M"
	}
	return newRun(model, mode, cfg, env, func(c *core) (backend, error) {
		cache, err := twolm.New(c.p.Fast, c.p.Slow, c.cfg.TwoLM)
		if err != nil {
			return nil, err
		}
		b := &twolmBackend{core: c, memOpt: memOpt, cache: cache,
			// The flat heap spans the slow device's physical address space;
			// under a shared platform the slow-tier budget arbitrates it
			// with the other tenants' heaps.
			heap:  env.limitSlow(alloc.NewFreeList(c.p.Slow.Capacity, alloc.FirstFit)),
			addrs: make([]int64, len(model.Tensors)),
			live:  make([]bool, len(model.Tensors)),
		}
		if c.reg.Enabled() {
			c.reg.Gauge("twolm_heap_used_bytes", func() float64 { return float64(b.heap.Used()) })
			c.reg.CounterFunc("twolm_cache_hits", func() float64 { return float64(cache.Stats().Hits) })
			c.reg.CounterFunc("twolm_cache_clean_misses", func() float64 { return float64(cache.Stats().CleanMisses) })
			c.reg.CounterFunc("twolm_cache_dirty_misses", func() float64 { return float64(cache.Stats().DirtyMisses) })
		}
		return b, nil
	})
}

// reap frees the deferred-death list and charges the GC pause.
func (b *twolmBackend) reap() {
	if len(b.dead) == 0 {
		return
	}
	for _, id := range b.dead {
		b.heap.Free(b.addrs[id])
		b.live[id] = false
	}
	// float64() rounds the product: no fused multiply-add on any GOARCH.
	pause := twolmPauseBase + float64(float64(len(b.dead))*twolmPausePerObject)
	b.p.Clock.Advance(pause)
	b.gcPauses += pause
	b.collections++
	b.freed += int64(len(b.dead))
	b.dead = b.dead[:0]
}

func (b *twolmBackend) place(id int) error {
	a, err := b.heap.Alloc(b.model.Tensors[id].Bytes)
	if err == alloc.ErrExhausted && len(b.dead) > 0 {
		// Memory pressure: run the collector and retry — the
		// mid-iteration GC visible in Fig. 3's 2LM:Ø curve.
		b.reap()
		a, err = b.heap.Alloc(b.model.Tensors[id].Bytes)
	}
	if err != nil {
		return fmt.Errorf("2LM heap: %w", err)
	}
	b.addrs[id] = a
	b.live[id] = true
	return nil
}

func (b *twolmBackend) kernel(ki int, _ float64, it *IterationMetrics) error {
	p, model := b.p, b.model
	k := &model.Kernels[ki]
	// The hardware cache services every access; there are
	// no hints and no explicit movement. Kernel-internal
	// re-reads (ReadFactor) hit the DRAM cache after the
	// first pass brings the lines in — the one advantage a
	// transparent cache has over in-place NVRAM reads.
	// App-side DRAM streaming overlaps with compute like
	// any kernel traffic; demand-miss handling (fills,
	// metadata, writebacks) stalls the kernel.
	var cost twolm.Cost
	rf := k.EffectiveReadFactor()
	for _, id := range k.Reads {
		cost.Add(b.cache.Access(b.addrs[id], model.Tensors[id].Bytes, false))
		if !amplified(model.Tensors[id].Kind) {
			continue
		}
		if rereads := int64(float64(model.Tensors[id].Bytes) * (rf - 1)); rereads > 0 {
			cost.App += p.Fast.Read(rereads, kernelAccess)
		}
	}
	for _, id := range k.Writes {
		cost.Add(b.cache.Access(b.addrs[id], model.Tensors[id].Bytes, true))
	}
	kt := k.FLOPs/p.Compute.PeakFlops + p.Compute.LaunchOverhead
	if cost.App > kt {
		kt = cost.App
	}
	kt += cost.Stall()
	p.Clock.Advance(kt)
	it.ComputeTime += kt
	b.rm.kernel(kt)

	for _, id := range b.sched.RetireAfter[ki] {
		if b.memOpt {
			// 2LM:M — free eagerly; the physical pages
			// are recycled while their lines are still
			// cache-resident.
			b.heap.Free(b.addrs[id])
			b.live[id] = false
		} else {
			b.dead = append(b.dead, id)
		}
	}
	return nil
}

func (b *twolmBackend) resident() int64 { return b.heap.Used() }

func (b *twolmBackend) collect(it *IterationMetrics) {
	b.reap()
	it.GCTime = b.gcPauses - b.gcSeen
	b.gcSeen = b.gcPauses
	stats := b.cache.Stats()
	it.Cache = stats.Sub(b.cacheSeen)
	b.cacheSeen = stats
}

func (b *twolmBackend) settle() error {
	if !b.cfg.CheckInvariants {
		return nil
	}
	if err := b.heap.CheckInvariants(); err != nil {
		return fmt.Errorf("2LM heap: %w", err)
	}
	for id, live := range b.live {
		if live && !b.persistent[id] {
			return fmt.Errorf("2LM leaked tensor %s", b.model.Tensors[id].Name)
		}
	}
	return nil
}

func (b *twolmBackend) finish(res *Result) error {
	res.GC.Collections, res.GC.ObjectsFreed = b.collections, b.freed
	return nil
}
