// Package twolm models Intel's "memory mode" (2LM): NVRAM as main memory
// with DRAM acting as a transparent, direct-mapped, write-back,
// write-allocate hardware cache (paper §IV-A). This is the baseline
// CachedArrays is compared against in Figures 2–6.
//
// The cache has no semantic knowledge: it sees physical addresses only, so
// dead data evicted from the cache must still be written back to NVRAM, and
// its NVRAM traffic is cache-line-grained and haphazard — the two
// mechanisms behind 2LM's losses in the paper.
//
// Tag tracking granularity is configurable. Real 2LM tracks 64-byte lines;
// at terabyte scale that much tag metadata is impractical to simulate
// densely, so paper-scale runs use a larger tracking sector (default
// 64 KiB) while NVRAM *timing* is still charged at the true hardware line
// granularity (64 B) — preserving both the miss-rate shape (streaming data
// misses once per fresh byte at any granularity) and the poor NVRAM
// bandwidth of line-grained traffic.
package twolm

import (
	"fmt"
	"slices"
	"sort"

	"cachedarrays/internal/memsim"
)

// Config parameterizes the DRAM cache.
type Config struct {
	// LineSize is the tag-tracking granularity (bytes). Default 64 KiB;
	// tests use small heaps with 64 B lines.
	LineSize int64
	// HWLineBytes is the true hardware transfer granularity used for
	// NVRAM timing. Default 64.
	HWLineBytes int64
	// MetadataFrac is the extra NVRAM read traffic charged per miss as a
	// fraction of the line size, modelling the cache-line-level metadata
	// tracking the paper blames for poor bandwidth utilization.
	MetadataFrac float64
}

// DefaultConfig returns the paper-scale configuration. HWLineBytes models
// the effective NVRAM transfer granularity of the miss path: the cache
// fetches 64 B lines, but Optane's internal 256 B access plus controller
// read/write combining on streaming miss bursts make ~8 KiB the effective
// run length for bandwidth purposes.
func DefaultConfig() Config {
	return Config{LineSize: 64 << 10, HWLineBytes: 8 << 10, MetadataFrac: 1.0 / 8}
}

// Stats are the DRAM cache tag statistics of Fig. 4.
type Stats struct {
	Hits        int64 // line-granularity hits
	CleanMisses int64 // misses evicting a clean (or invalid) line
	DirtyMisses int64 // misses that forced a writeback
}

// Accesses returns the total line accesses.
func (s Stats) Accesses() int64 { return s.Hits + s.CleanMisses + s.DirtyMisses }

// HitRate returns hits / accesses (0 for no accesses).
func (s Stats) HitRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses())
}

// CleanMissRate returns clean misses / accesses.
func (s Stats) CleanMissRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.CleanMisses) / float64(s.Accesses())
}

// DirtyMissRate returns dirty misses / accesses.
func (s Stats) DirtyMissRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.DirtyMisses) / float64(s.Accesses())
}

// Sub returns s - o (diffing snapshots).
func (s Stats) Sub(o Stats) Stats {
	return Stats{Hits: s.Hits - o.Hits, CleanMisses: s.CleanMisses - o.CleanMisses,
		DirtyMisses: s.DirtyMisses - o.DirtyMisses}
}

// maxSets bounds the tag state so a mis-scaled configuration fails fast:
// a hostile access pattern can split the extent list into one segment
// per set.
const maxSets = 256 << 20

// seg is one run of consecutive sets holding consecutive lines in the
// same condition: sets [start, next segment's start) — or to numSets for
// the last segment. state is 0 when the sets are invalid, otherwise
// (lap+1)<<1 | dirty, where set s holds line lap*numSets + s.
type seg struct {
	start int64
	state int64
}

// Cache is the direct-mapped write-back DRAM cache. Addresses are physical
// addresses in the flat NVRAM-backed heap.
type Cache struct {
	cfg     Config
	fast    *memsim.Device // DRAM (the cache data array)
	slow    *memsim.Device // NVRAM (backing memory)
	numSets int64
	// segs is the tag state as a run-length extent list. Accesses are
	// whole tensors, so sets change condition in long runs: a few dozen
	// segments describe millions of sets. Canonical form: segs[0].start
	// is 0, starts strictly increase, adjacent states differ — so equal
	// tag states have equal lists.
	segs    []seg
	scratch []seg // accessRun's replacement segments, reused
	stats   Stats
	// Incremental accounting, kept in lockstep with segs so occupancy and
	// writeback queries never walk the list.
	occupied int64 // sets holding a valid line
	dirtyCnt int64 // sets holding a dirty line
}

// New builds a cache whose data array is the fast device and whose backing
// store is the slow device.
func New(fast, slow *memsim.Device, cfg Config) (*Cache, error) {
	if cfg.LineSize <= 0 {
		return nil, fmt.Errorf("twolm: invalid line size %d", cfg.LineSize)
	}
	if cfg.HWLineBytes <= 0 {
		cfg.HWLineBytes = 64
	}
	numSets := fast.Capacity / cfg.LineSize
	if numSets <= 0 {
		return nil, fmt.Errorf("twolm: cache capacity %d below line size %d",
			fast.Capacity, cfg.LineSize)
	}
	if numSets > maxSets {
		return nil, fmt.Errorf("twolm: %d sets exceeds tag-array limit %d (raise LineSize)",
			numSets, maxSets)
	}
	return &Cache{cfg: cfg, fast: fast, slow: slow, numSets: numSets, segs: []seg{{}}}, nil
}

// Flush invalidates every line without writing anything back (used between
// runs; real hardware cannot do this, which is part of the point).
func (c *Cache) Flush() {
	c.segs = append(c.segs[:0], seg{})
	c.occupied, c.dirtyCnt = 0, 0
}

// ResetStats zeroes the tag statistics.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Stats returns a snapshot of the tag statistics.
func (c *Cache) Stats() Stats { return c.stats }

// LineSize returns the tag-tracking granularity.
func (c *Cache) LineSize() int64 { return c.cfg.LineSize }

// OccupiedLines returns how many sets hold a valid line. The count is
// maintained incrementally by Access, so this is O(1).
func (c *Cache) OccupiedLines() int64 { return c.occupied }

// DirtyLines returns how many sets hold a dirty line, also O(1).
func (c *Cache) DirtyLines() int64 { return c.dirtyCnt }

// Cost breaks an access's service time into overlappable components.
type Cost struct {
	// App is the DRAM data-array time for the application's own bytes —
	// a streaming access that overlaps with compute like any DRAM read.
	App float64
	// FillDRAM is DRAM-side miss handling (fill writes, victim reads).
	FillDRAM float64
	// NVRAM is NVRAM-side miss handling (fill reads, metadata,
	// writeback writes).
	NVRAM float64
}

// Stall is the demand-miss stall: fill and writeback streams overlap each
// other across the two buses, but not with the kernel's compute — demand
// misses are what make hardware caching "transparent but not free".
func (c Cost) Stall() float64 {
	if c.FillDRAM > c.NVRAM {
		return c.FillDRAM
	}
	return c.NVRAM
}

// Total is the access's full serial time (App + Stall).
func (c Cost) Total() float64 { return c.App + c.Stall() }

// Add accumulates o into c componentwise.
func (c *Cost) Add(o Cost) {
	c.App += o.App
	c.FillDRAM += o.FillDRAM
	c.NVRAM += o.NVRAM
}

// Access runs the address range [addr, addr+size) through the cache as a
// read or a write, updating tag state and device traffic counters, and
// returns the modelled service-time components. The caller (the engine)
// decides how to overlap them with compute.
//
// The line range is cut where it wraps around the set array; each piece
// holds one lap's lines in consecutive sets and is classified and
// installed by accessRun in time proportional to the segments it
// overlaps, not the lines it covers. Statistics, tag state and traffic
// are bit-identical to the seed per-line loop, which equivalence_test.go
// keeps as the reference.
func (c *Cache) Access(addr, size int64, write bool) Cost {
	if size <= 0 {
		return Cost{}
	}
	if addr < 0 || addr+size > c.slow.Capacity {
		panic(fmt.Sprintf("twolm: access [%d,%d) outside backing memory (%d)",
			addr, addr+size, c.slow.Capacity))
	}
	first := addr / c.cfg.LineSize
	last := (addr + size - 1) / c.cfg.LineSize
	var hits, cleanMisses, dirtyMisses int64
	for line := first; line <= last; {
		lap, set := line/c.numSets, line%c.numSets
		end := min(set+last-line+1, c.numSets)
		h, cm, dm := c.accessRun(set, end, lap, write)
		hits += h
		cleanMisses += cm
		dirtyMisses += dm
		line += end - set
	}
	c.stats.Hits += hits
	c.stats.CleanMisses += cleanMisses
	c.stats.DirtyMisses += dirtyMisses

	return c.accessCost(size, cleanMisses, dirtyMisses, write)
}

// accessRun streams lap's lines for sets [a, b) through the tag state:
// the overlapped segments are classified by length into hits, clean and
// dirty misses, and replaced by what the run leaves behind — one dirty
// segment after a write; after a read, a clean one broken only where
// dirty lines of this very lap were hit and stay dirty.
func (c *Cache) accessRun(a, b, lap int64, write bool) (hits, cleanMisses, dirtyMisses int64) {
	segs := c.segs
	// The segment containing a: the last one starting at or before it.
	i := sort.Search(len(segs), func(k int) bool { return segs[k].start > a }) - 1
	resident := (lap + 1) << 1 // state, dirty bit aside, of sets already holding this lap
	installed := resident
	if write {
		installed |= 1
	}

	// lo is where the replacement starts: after i if its head survives.
	lo := i
	if segs[i].start < a {
		lo++
	}
	out := c.scratch[:0]
	last := int64(-1) // state of the segment before the next one pushed
	if lo > 0 {
		last = segs[lo-1].state
	}
	push := func(start, state int64) {
		if state != last {
			out = append(out, seg{start, state})
			last = state
		}
	}

	j := i
	for ; j < len(segs) && segs[j].start < b; j++ {
		st := segs[j].state
		end := c.numSets
		if j+1 < len(segs) {
			end = segs[j+1].start
		}
		from := max(segs[j].start, a)
		n := min(end, b) - from
		after := installed
		switch {
		case st&^1 == resident:
			hits += n
			after |= st & 1 // a read hit leaves a dirty line dirty
		case st == 0:
			cleanMisses += n
			c.occupied += n
		case st&1 == 1:
			dirtyMisses += n
		default:
			cleanMisses += n
		}
		c.dirtyCnt += n * (after&1 - st&1)
		push(from, after)
		if end > b { // the tail of the last overlapped segment survives
			push(b, st)
		}
	}
	// hi is where the untouched tail resumes; its first segment merges
	// into the replacement when the states meet.
	hi := j
	if hi < len(segs) && segs[hi].state == last {
		hi++
	}
	c.scratch = out
	if slices.Equal(segs[lo:hi], out) {
		return // all hits, nothing changed
	}
	c.segs = slices.Replace(segs, lo, hi, out...)
	return
}

// accessCost charges the modelled timing and traffic for an access of the
// given size and miss tallies.
func (c *Cache) accessCost(size, cleanMisses, dirtyMisses int64, write bool) Cost {
	// Timing and traffic. All application bytes are served by the DRAM
	// data array; misses add NVRAM fills (plus DRAM fill writes), dirty
	// misses add writebacks (DRAM victim reads plus NVRAM writes).
	misses := cleanMisses + dirtyMisses
	ls := c.cfg.LineSize
	appAcc := memsim.Access{Threads: 28, Granularity: ls}
	// NVRAM traffic moves at the hardware miss-path granularity. The
	// writeback path is controller-driven: no CPU cache allocation (so
	// no temporal-store penalty) and a small number of in-flight write
	// streams (so no parallelism collapse either) — its cost comes from
	// the short run lengths themselves.
	nvAcc := memsim.Access{Threads: 4, Granularity: c.cfg.HWLineBytes, NonTemporal: true}

	var cost Cost
	if write {
		cost.App += c.fast.Write(size, appAcc)
	} else {
		cost.App += c.fast.Read(size, appAcc)
	}
	if misses > 0 {
		fill := misses * ls
		cost.NVRAM += c.slow.Read(fill, nvAcc)
		cost.FillDRAM += c.fast.Write(fill, appAcc)
		if c.cfg.MetadataFrac > 0 {
			cost.NVRAM += c.slow.Read(int64(float64(fill)*c.cfg.MetadataFrac), nvAcc)
		}
	}
	if dirtyMisses > 0 {
		wb := dirtyMisses * ls
		cost.FillDRAM += c.fast.Read(wb, appAcc)
		cost.NVRAM += c.slow.Write(wb, nvAcc)
	}
	return cost
}

// WritebackAll flushes every dirty line to NVRAM and returns the modelled
// time; used to account end-of-run consistency if needed. A clean cache
// returns immediately.
func (c *Cache) WritebackAll() float64 {
	if c.dirtyCnt == 0 {
		return 0
	}
	lines := c.dirtyCnt
	// Clear every dirty bit, then merge neighbours it was the only
	// difference between (the first of a run keeps its start).
	for i := range c.segs {
		c.segs[i].state &^= 1
	}
	c.segs = slices.CompactFunc(c.segs, func(a, b seg) bool { return a.state == b.state })
	c.dirtyCnt = 0
	nvAcc := memsim.Access{Threads: 28, Granularity: c.cfg.HWLineBytes}
	appAcc := memsim.Access{Threads: 28, Granularity: c.cfg.LineSize}
	t := c.fast.Read(lines*c.cfg.LineSize, appAcc)
	t += c.slow.Write(lines*c.cfg.LineSize, nvAcc)
	return t
}
