package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"cachedarrays/internal/alloc"
	"cachedarrays/internal/cluster"
	"cachedarrays/internal/dm"
	"cachedarrays/internal/engine"
	"cachedarrays/internal/gcsim"
	"cachedarrays/internal/memsim"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/pagemig"
	"cachedarrays/internal/planner"
	"cachedarrays/internal/policy"
	"cachedarrays/internal/sched"
	"cachedarrays/internal/trace"
	"cachedarrays/internal/twolm"
	"cachedarrays/internal/units"
)

// The layer drivers. Layers the engine calls internally cannot be timed
// from outside through the engine, so each driver replays the workload's
// own trace.New(model) schedule — allocate before first use, read and
// write hints, pin and unpin, archive, retire — against one layer's
// public API, one layer lower each time. A driver's time minus the time
// of the driver one layer down estimates the upper layer's self time.

// probe is the shared state of one workload's layer drivers.
type probe struct {
	c     *runCtx
	sp    *spans
	root  int
	build func() *models.Model // the workload's reference model
	model *models.Model
	sch   *trace.Schedule
	// fast and slow are the reference platform's capacities.
	fast, slow int64
	iters      int // schedule replays per driver
	stepIters  int // iterations the engine driver steps each mode for
	out        map[string]float64
	// policyWalk and policyHints carry the policy driver's time down to
	// the dm driver, which subtracts its own.
	policyWalk  time.Duration
	policyHints int64
}

// probeSets names the layer drivers each workload runs: the layers that
// do work in it.
var probeSets = map[string][]func(*probe) error{
	"suite_cold":     {probeModels, probeTrace, probeEngine, probePolicy, probeDM, probeAlloc, probeMemsim, probeTwoLM, probePagemig, probePlanner, probeSched},
	"suite_warm":     {probeModels, probeSched, probeCluster},
	"solo_ca":        {probeModels, probeTrace, probePolicy, probeDM, probeAlloc, probeMemsim},
	"solo_baselines": {probeModels, probeTrace, probeAlloc, probeMemsim, probeTwoLM, probePagemig, probePlanner},
	"cluster_fleet":  {probeModels, probeTrace, probeEngine, probePolicy, probeDM, probeAlloc, probeMemsim, probeCluster},
	"observed":       {probeModels, probeTrace, probePolicy, probeDM, probeMemsim, probeCluster},
}

// newProbe picks the workload's reference model and platform: ResNet 200
// on the paper's socket for the paper-scale workloads, a BenchMix-sized
// MLP on the fleet platform for cluster_fleet.
func newProbe(w *workload, c *runCtx, sp *spans, root int, out map[string]float64) *probe {
	p := &probe{c: c, sp: sp, root: root, out: out, iters: 2, stepIters: 2}
	if w.name == "cluster_fleet" {
		p.build = func() *models.Model { return models.MLP(256, []int{512}, 10, 32) }
		p.fast, p.slow = 16*units.MB, 2*units.GB
		p.iters, p.stepIters = 200, 50 // a five-kernel model: enough events to time
	} else {
		p.build = paperModel(models.PaperLargeModels()[1], c.sc.batchDiv)
		p.fast = memsim.DefaultFastCapacity / int64(c.sc.batchDiv)
		p.slow = memsim.DefaultSlowCapacity / int64(c.sc.batchDiv)
	}
	p.model = p.build()
	p.sch = trace.New(p.model)
	return p
}

func (p *probe) platform() *memsim.Platform {
	return memsim.NewPlatform(memsim.PlatformConfig{FastCapacity: p.fast, SlowCapacity: p.slow})
}

// timed runs fn under a span named after the layer and returns its
// host time.
func (p *probe) timed(name string, fn func() error) (time.Duration, error) {
	id := p.sp.begin(name, p.root)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	p.sp.end(id, 1)
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// walker is one layer's reaction to the schedule's events.
type walker struct {
	alloc   func(id int) error
	read    func(id int)
	write   func(id int)
	kernel  func(ki int, k *models.Kernel) // between hints and annotations
	archive func(id int)
	retire  func(id int)
	endIter func()
}

// walk replays iters training iterations of the schedule.
func (p *probe) walk(w walker) error {
	for _, id := range p.sch.Persistent {
		if err := w.alloc(id); err != nil {
			return err
		}
	}
	for it := 0; it < p.iters; it++ {
		for ki := range p.model.Kernels {
			k := &p.model.Kernels[ki]
			for _, id := range p.sch.AllocBefore[ki] {
				if err := w.alloc(id); err != nil {
					return err
				}
			}
			for _, id := range k.Reads {
				w.read(id)
			}
			for _, id := range k.Writes {
				w.write(id)
			}
			if w.kernel != nil {
				w.kernel(ki, k)
			}
			if w.archive != nil {
				for _, id := range p.sch.ArchiveAfter[ki] {
					w.archive(id)
				}
			}
			for _, id := range p.sch.RetireAfter[ki] {
				w.retire(id)
			}
		}
		if w.endIter != nil {
			w.endIter()
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

func perCall(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// probeModels times the graph builders and the serialization every cache
// key hashes.
func probeModels(p *probe) error {
	div := p.c.sc.batchDiv
	builders := []func() *models.Model{p.build}
	for _, pm := range models.PaperLargeModels() {
		builders = append(builders, paperModel(pm, div))
	}
	built := make([]*models.Model, len(builders))
	d, _ := p.timed("models.build", func() error {
		for i, b := range builders {
			built[i] = b()
		}
		return nil
	})
	p.out["models.build_ms"] = ms(d)
	d, err := p.timed("models.savejson", func() error {
		for _, m := range built {
			if err := m.SaveJSON(io.Discard); err != nil {
				return err
			}
		}
		return nil
	})
	p.out["models.savejson_ms"] = ms(d)
	return err
}

func probeTrace(p *probe) error {
	d, err := p.timed("trace.schedule", func() error {
		for i := 0; i < 5; i++ {
			if err := trace.New(p.model).Validate(); err != nil {
				return err
			}
		}
		return nil
	})
	p.out["trace.schedule_ms"] = ms(d) / 5
	return err
}

// probeEngine steps the reference model under one mode of each stepper
// family, for the workloads that reach the engine only through a layer
// that hides the steppers (the scheduler, the cluster).
func probeEngine(p *probe) error {
	lt := newLayerTimes()
	defer lt.close()
	for _, mode := range []string{"CA:LM", "2LM:M", "OS:page", "AutoTM", engine.AdaptiveOGTG} {
		cell := soloCell{name: "probe/" + mode, build: p.build, mode: mode, model: p.model,
			cfg: engine.Config{Iterations: p.stepIters, FastCapacity: p.fast, SlowCapacity: p.slow}}
		if _, _, err := driveSolo(p.c, &cell, p.sp, p.root, lt); err != nil {
			return fmt.Errorf("engine probe %s: %w", mode, err)
		}
	}
	lt.into(p.out)
	return nil
}

// probePolicy replays the schedule against policy.Tiered the way the CA
// stepper does, without the engine around it.
func probePolicy(p *probe) error {
	plat := p.platform()
	m := dm.New(plat)
	gc := gcsim.New(m, plat.Clock)
	pol := policy.NewTiered(m, policy.CALM, gc)
	objs := make([]*dm.Object, len(p.model.Tensors))
	var hints int64
	d, err := p.timed("policy.walk", func() error {
		return p.walk(walker{
			alloc: func(id int) error {
				o, err := pol.NewObject(p.model.Tensors[id].Bytes)
				objs[id] = o
				hints++
				return err
			},
			read:  func(id int) { pol.WillRead(objs[id]); hints++ },
			write: func(id int) { pol.WillWrite(objs[id]); hints++ },
			kernel: func(_ int, k *models.Kernel) {
				for _, ids := range [][]int{k.Reads, k.Writes} {
					for _, id := range ids {
						pol.Pin(objs[id])
					}
				}
				for _, ids := range [][]int{k.Reads, k.Writes} {
					for _, id := range ids {
						pol.Unpin(objs[id])
					}
				}
				hints += 2 * int64(len(k.Reads)+len(k.Writes))
			},
			archive: func(id int) { pol.Archive(objs[id]); hints++ },
			retire:  func(id int) { pol.Retire(objs[id]); objs[id] = nil; hints++ },
			endIter: func() { gc.Collect(); m.Defrag(dm.Fast); m.Defrag(dm.Slow) },
		})
	})
	st := pol.Stats()
	p.out["policy.hint_ns"] = perCall(d, hints)
	p.out["policy.hints"] = float64(hints)
	p.out["policy.evictions"] = float64(st.Evictions)
	p.out["policy.prefetches"] = float64(st.Prefetches)
	p.policyWalk, p.policyHints = d, hints
	return err
}

// probeDM replays the schedule one layer down: every tensor becomes an
// object born in slow memory, gets a fast copy linked and promoted to
// primary while room lasts, and is destroyed at its retire point. Then a
// fragmented fast tier is range-evicted and compacted.
func probeDM(p *probe) error {
	plat := p.platform()
	m := dm.New(plat)
	objs := make([]*dm.Object, len(p.model.Tensors))
	var cycles int64
	d, err := p.timed("dm.walk", func() error {
		return p.walk(walker{
			alloc: func(id int) error {
				size := p.model.Tensors[id].Bytes
				o, err := m.NewObject(size, dm.Slow)
				if err != nil {
					return err
				}
				objs[id] = o
				if y, err := m.Allocate(dm.Fast, size); err == nil {
					x := m.GetPrimary(o)
					m.CopyTo(y, x)
					if err := m.Link(x, y); err != nil {
						return err
					}
					return m.SetPrimary(o, y)
				}
				return nil
			},
			read:  func(int) {},
			write: func(id int) { m.MarkDirty(m.GetPrimary(objs[id])) },
			retire: func(id int) {
				m.DestroyObject(objs[id])
				objs[id] = nil
				cycles++
			},
		})
	})
	if err != nil {
		return err
	}
	p.out["dm.object_cycle_ns"] = perCall(d, cycles)
	if p.policyHints > 0 {
		// The policy driver's time minus this one, one layer down.
		p.out["policy.self_ns_per_hint"] = perCall(p.policyWalk-d, p.policyHints)
	}

	// What survives the walk is the persistent set, fast-resident where it
	// fit. Destroy every other fast-resident object to fragment the tier,
	// then range-evict the bottom quarter of the span they occupied.
	var span int64
	for i, id := range p.sch.Persistent {
		r := m.GetPrimary(objs[id])
		if !m.In(r, dm.Fast) {
			continue
		}
		if end := r.Offset() + r.Size(); end > span {
			span = end
		}
		if i%2 == 1 {
			m.DestroyObject(objs[id])
		}
	}
	d, err = p.timed("dm.evictfrom", func() error {
		return m.EvictFrom(dm.Fast, 0, span/4, func(r *dm.Region) {
			o := m.Parent(r)
			y := m.GetLinked(r, dm.Slow)
			m.CopyTo(y, r)
			if err := m.SetPrimary(o, y); err != nil {
				panic(err)
			}
			if err := m.Unlink(r, y); err != nil {
				panic(err)
			}
			m.Free(r)
		})
	})
	p.out["dm.evictfrom_us"] = us(d)
	if err != nil {
		return err
	}
	d, _ = p.timed("dm.defrag", func() error { m.Defrag(dm.Fast); return nil })
	p.out["dm.defrag_us"] = us(d)
	p.out["dm.copies"] = float64(m.Stats().Copies)
	return nil
}

// probeAlloc replays the schedule's allocation pattern against the bare
// free list, then against a quota-limited one that must refuse some.
func probeAlloc(p *probe) error {
	capacity := 2 * p.model.PeakFootprint()
	fl := alloc.NewFreeList(capacity, alloc.FirstFit)
	offs := make([]int64, len(p.model.Tensors))
	var ops int64
	nop := func(int) {}
	d, err := p.timed("alloc.walk", func() error {
		return p.walk(walker{
			alloc: func(id int) error {
				off, err := fl.Alloc(p.model.Tensors[id].Bytes)
				offs[id] = off
				ops++
				return err
			},
			read: nop, write: nop,
			retire: func(id int) { fl.Free(offs[id]); ops++ },
		})
	})
	if err != nil {
		return err
	}
	p.out["alloc.op_ns"] = perCall(d, ops)
	p.out["alloc.ops"] = float64(ops)

	// Fragment what is left (the persistent set) and time the two
	// whole-heap operations the data manager leans on.
	for i, id := range p.sch.Persistent {
		if i%2 == 1 {
			fl.Free(offs[id])
		}
	}
	const probes = 1000
	var sink int64
	d, _ = p.timed("alloc.largest_free", func() error {
		for i := 0; i < probes; i++ {
			sink += fl.LargestFree()
		}
		return nil
	})
	p.out["alloc.largest_free_ns"] = perCall(d, probes)
	d, _ = p.timed("alloc.compact", func() error {
		fl.Compact(func(_, _, size int64) { sink += size })
		return nil
	})
	p.out["alloc.compact_us"] = us(d)
	runtime.KeepAlive(sink)

	// A tenant squeezed by its neighbours: a third of the peak footprint
	// as budget, so the walk is refused part of the time.
	q := alloc.NewQuota(p.model.PeakFootprint() / 3)
	lim := alloc.Limit(alloc.NewFreeList(capacity, alloc.FirstFit), q)
	held := make([]bool, len(p.model.Tensors))
	var tries, fails int64
	_, err = p.timed("alloc.quota_walk", func() error {
		return p.walk(walker{
			alloc: func(id int) error {
				tries++
				off, err := lim.Alloc(p.model.Tensors[id].Bytes)
				if err != nil {
					fails++
					return nil
				}
				offs[id], held[id] = off, true
				return nil
			},
			read: nop, write: nop,
			retire: func(id int) {
				if held[id] {
					lim.Free(offs[id])
					held[id] = false
				}
			},
		})
	})
	p.out["alloc.fail_ratio"] = float64(fails) / float64(tries)
	return err
}

func probeMemsim(p *probe) error {
	const n = 200000
	clock := &memsim.Clock{}
	d, _ := p.timed("memsim.advance", func() error {
		for i := 0; i < n; i++ {
			clock.Advance(1e-9)
		}
		return nil
	})
	p.out["memsim.advance_ns"] = perCall(d, n)
	plat := p.platform()
	d, _ = p.timed("memsim.copy", func() error {
		for i := 0; i < n; i++ {
			plat.Copier.Copy(plat.Fast, 0, plat.Slow, 0, 1<<20)
		}
		return nil
	})
	p.out["memsim.copy_ns"] = perCall(d, n)
	access := memsim.Access{Threads: 28, Granularity: 32 << 10}
	var sink float64
	d, _ = p.timed("memsim.devio", func() error {
		for i := 0; i < n/2; i++ {
			sink += plat.Slow.Read(1<<20, access)
			sink += plat.Fast.Write(1<<20, access)
		}
		return nil
	})
	p.out["memsim.devio_ns"] = perCall(d, n)
	runtime.KeepAlive(sink)
	return nil
}

// heapWalk replays the schedule over a flat slow-device heap and hands
// every kernel access to the baseline's memory model, as the 2LM and
// page-migration steppers do.
func (p *probe) heapWalk(plat *memsim.Platform, access func(addr, size int64, write bool), kernel func(ki int)) error {
	heap := alloc.NewFreeList(plat.Slow.Capacity, alloc.FirstFit)
	addrs := make([]int64, len(p.model.Tensors))
	w := walker{
		alloc: func(id int) error {
			a, err := heap.Alloc(p.model.Tensors[id].Bytes)
			addrs[id] = a
			return err
		},
		read:   func(id int) { access(addrs[id], p.model.Tensors[id].Bytes, false) },
		write:  func(id int) { access(addrs[id], p.model.Tensors[id].Bytes, true) },
		retire: func(id int) { heap.Free(addrs[id]) },
	}
	if kernel != nil {
		w.kernel = func(ki int, _ *models.Kernel) { kernel(ki) }
	}
	return p.walk(w)
}

func probeTwoLM(p *probe) error {
	plat := p.platform()
	var cache *twolm.Cache
	d, err := p.timed("twolm.new", func() (err error) {
		cache, err = twolm.New(plat.Fast, plat.Slow, twolm.DefaultConfig())
		return err
	})
	p.out["twolm.new_ms"] = ms(d)
	if err != nil {
		return err
	}
	var calls, bytes int64
	d, err = p.timed("twolm.walk", func() error {
		err := p.heapWalk(plat, func(addr, size int64, write bool) {
			cache.Access(addr, size, write)
			calls++
			bytes += size
		}, nil)
		cache.WritebackAll()
		return err
	})
	p.out["twolm.access_us"] = perCall(d, calls) / 1e3
	p.out["twolm.lines_per_s"] = float64(bytes/cache.LineSize()) / d.Seconds()
	p.out["twolm.hit_ratio"] = cache.Stats().HitRate()
	return err
}

func probePagemig(p *probe) error {
	plat := p.platform()
	cfg := pagemig.DefaultConfig()
	mig, err := pagemig.New(plat, cfg)
	if err != nil {
		return err
	}
	access := memsim.Access{Threads: 28, Granularity: 32 << 10}
	var (
		calls, epochs   int64
		accessD, epochD time.Duration
		sinceEpoch      int
		m0, m1          runtime.MemStats
		saved           = p.iters
	)
	p.iters = 1 // an OS:page iteration is the slowest thing in the suite
	defer func() { p.iters = saved }()
	runtime.ReadMemStats(&m0)
	_, err = p.timed("pagemig.walk", func() error {
		return p.heapWalk(plat, func(addr, size int64, write bool) {
			t0 := time.Now()
			mig.Access(addr, size, write, access)
			accessD += time.Since(t0)
			calls++
		}, func(int) {
			if sinceEpoch++; sinceEpoch >= cfg.EpochKernels {
				t0 := time.Now()
				mig.Epoch()
				epochD += time.Since(t0)
				epochs++
				sinceEpoch = 0
			}
		})
	})
	runtime.ReadMemStats(&m1)
	p.out["pagemig.access_us"] = perCall(accessD, calls) / 1e3
	p.out["pagemig.epoch_ms"] = perCall(epochD, epochs) / 1e6
	p.out["pagemig.epochs"] = float64(epochs)
	p.out["pagemig.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	return err
}

func probePlanner(p *probe) error {
	const n = 3
	d, _ := p.timed("planner.build", func() error {
		for i := 0; i < n; i++ {
			planner.Build(p.model, p.fast, planner.DefaultCostModel())
		}
		return nil
	})
	p.out["planner.build_ms"] = ms(d) / n
	return nil
}

// probeSched times the result cache's three operations on one real cell
// — key, put, get through a fresh Cache instance — and the worker pool's
// scaling on a batch of distinct uncached cells.
func probeSched(p *probe) error {
	cfg := engine.Config{Iterations: p.c.sc.suiteIters, FastCapacity: p.fast, SlowCapacity: p.slow}
	res, err := sched.RunMode(p.model, "CA:LM", cfg)
	if err != nil {
		return err
	}
	lt := newLayerTimes()
	defer lt.close()
	const n = 5
	for i := 0; i < n; i++ {
		id := p.sp.begin("sched.key", p.root)
		t0 := time.Now()
		key, err := sched.Key(p.model, "CA:LM", cfg)
		lt.key.add(time.Since(t0))
		p.sp.end(id, 1)
		if err != nil {
			return err
		}
		if err := lt.cacheRoundTrip(p.c.tmp, p.sp, p.root, key, res); err != nil {
			return err
		}
	}
	if lt.cacheFail > 0 {
		return fmt.Errorf("sched probe: warm result differs from cold")
	}
	lt.schedInto(p.out)

	if p.c.procs < 2 {
		return nil // worker_speedup_x stays unresolved on one CPU
	}
	batch := func() []sched.Cell {
		cells := make([]sched.Cell, 8)
		for i := range cells {
			c := cfg
			c.Iterations = 2
			c.FastCapacity = p.fast - int64(i)*p.fast/16
			cells[i] = sched.Cell{Name: fmt.Sprintf("probe%d", i), Model: p.model, Mode: "CA:LM", Cfg: c}
		}
		return cells
	}
	var serial, parallel time.Duration
	for _, workers := range []int{1, 2} {
		s := &sched.Scheduler{Workers: workers}
		d, err := p.timed(fmt.Sprintf("sched.run.workers%d", workers), func() error {
			_, err := s.Run(batch())
			return err
		})
		if err != nil {
			return err
		}
		if workers == 1 {
			serial = d
		} else {
			parallel = d
		}
	}
	p.out["sched.worker_speedup_x"] = serial.Seconds() / parallel.Seconds()
	return nil
}

// probeCluster times a small fleet, the whole-run cache key, and reads
// the quota rejections the cluster only publishes through its metrics.
func probeCluster(p *probe) error {
	n, iters := 16, 96
	if p.c.sc.quick {
		n, iters = 4, 2
	}
	cfg := fleetConfig(p.c.seed, n, iters)
	var res *cluster.Result
	d, err := p.timed("cluster.run.n16", func() (err error) {
		res, err = cluster.Run(cfg)
		return err
	})
	if err != nil {
		return err
	}
	p.out["cluster.step_ns.n16"] = perCall(d, int64(res.Dispatches))

	big := p.c.sc.fleet[0]
	keyCfg := fleetConfig(p.c.seed, big.n, big.iters)
	const keys = 3
	d, err = p.timed("cluster.key", func() error {
		for i := 0; i < keys; i++ {
			if _, err := cluster.Key(keyCfg); err != nil {
				return err
			}
		}
		return nil
	})
	p.out["cluster.key_us"] = us(d) / keys
	if err != nil {
		return err
	}

	reg := metrics.New(0.01)
	cfg = fleetConfig(p.c.seed, n, iters)
	cfg.Engine.Metrics = reg
	if _, err := p.timed("cluster.run.metered", func() (err error) {
		res, err = cluster.Run(cfg)
		return err
	}); err != nil {
		return err
	}
	rejected, _ := reg.Value("cluster_fast_quota_rejections")
	p.out["cluster.quota_reject_ratio"] = rejected / float64(res.Dispatches)
	return nil
}
