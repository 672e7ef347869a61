package engine

import (
	"sync"

	"cachedarrays/internal/memsim"
)

// Platform pooling: every runner (CA, 2LM, pagemig, planned) used to build
// a fresh memsim.Platform per run. Platforms are cheap but not free —
// device structs, the copy engine and (for the 2LM baseline) the tag
// array churn the allocator in tight sweeps. Since Platform.Reset provably
// restores a platform to its freshly-built state (every observer and
// injector dropped, counters zeroed, clock rewound — see the
// reuse-equality tests), runs with the same hardware description can share
// one platform instance.
//
// The pool is keyed by everything that makes two platforms different:
// resolved capacities, copy-engine thread count and the slow-tier
// technology. Per-run knobs that survive Reset by design (Copier.Async,
// WriteThreadCap) are set explicitly on every acquire, so a reused
// platform can never leak a previous run's movement discipline.

// platformKey identifies one hardware description.
type platformKey struct {
	fast     int64
	slow     int64
	threads  int
	slowTier string
}

// poolShard holds the idle platforms of one hardware description behind
// its own short lock. Shards live in a sync.Map so concurrent acquires
// of *different* configs never contend at all (the sync.Map read path is
// lock-free once a shard exists), and acquires of the *same* config
// contend only on the shard's push/pop — never on buildPlatform or
// Reset, which both run outside any lock.
type poolShard struct {
	mu   sync.Mutex
	free []*memsim.Platform
}

var platformPool sync.Map // platformKey -> *poolShard

// shardFor returns the pool shard for one hardware description,
// creating it on first use.
func shardFor(key platformKey) *poolShard {
	if s, ok := platformPool.Load(key); ok {
		return s.(*poolShard)
	}
	s, _ := platformPool.LoadOrStore(key, &poolShard{})
	return s.(*poolShard)
}

// poolDepth reports how many idle platforms a key currently holds
// (test hook).
func poolDepth(key platformKey) int {
	s := shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.free)
}

// buildPlatform constructs a platform from a resolved config (the
// non-pooled path; acquirePlatform wraps it).
func buildPlatform(cfg Config) *memsim.Platform {
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
	return &memsim.Platform{
		Clock:   clock,
		Fast:    fast,
		Slow:    slow,
		Copier:  memsim.NewCopyEngine(clock, cfg.CopyThreads),
		Compute: memsim.DefaultCompute(),
	}
}

// acquirePlatform returns a platform matching cfg — reused from the pool
// when one with the same hardware description is idle, freshly built
// otherwise — plus a release function that resets it and returns it to
// the pool. Callers release only on success paths; a platform abandoned
// mid-failure is simply dropped, so the pool never holds a platform in an
// unknown state.
func acquirePlatform(cfg Config) (*memsim.Platform, func()) {
	key := platformKey{
		fast:     resolveCapacity(cfg.FastCapacity, memsim.DefaultFastCapacity),
		slow:     resolveCapacity(cfg.SlowCapacity, memsim.DefaultSlowCapacity),
		threads:  cfg.CopyThreads,
		slowTier: cfg.SlowTier,
	}
	shard := shardFor(key)
	shard.mu.Lock()
	var p *memsim.Platform
	if n := len(shard.free); n > 0 {
		p = shard.free[n-1]
		shard.free[n-1] = nil
		shard.free = shard.free[:n-1]
	}
	shard.mu.Unlock()
	if p == nil {
		p = buildPlatform(cfg)
	}
	// Per-run movement discipline: set unconditionally so a pooled
	// platform carries exactly what this run's config asks for.
	p.Copier.Async = cfg.AsyncMovement
	p.Copier.WriteThreadCap = 0
	if cfg.AsyncMovement {
		// A mover that nothing blocks on is free to pace its write
		// streams at the destination's optimal parallelism (§V-d).
		p.Copier.WriteThreadCap = p.Slow.Profile.WritePeakThreads
	}
	release := func() {
		p.Reset() // outside the lock: Reset cost never serializes other releases
		shard.mu.Lock()
		shard.free = append(shard.free, p)
		shard.mu.Unlock()
	}
	return p, release
}
