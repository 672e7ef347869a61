package twolm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"cachedarrays/internal/memsim"
)

// refCache is the seed per-line implementation, kept as the equivalence
// baseline the tests below verify the extent-list Cache against: one tag
// and one dirty bit per set, every line of an access visited in turn. It
// owns its flat arrays and borrows the embedded Cache only for the
// devices, the statistics, the two counters and accessCost; the embedded
// extent list stays unused. Tag state, statistics and modelled costs are
// bit-identical between the two.
type refCache struct {
	*Cache
	tags  []int64 // line index resident in each set; -1 = invalid
	dirty []bool
}

func newRefCache(c *Cache) *refCache {
	r := &refCache{Cache: c, tags: make([]int64, c.numSets), dirty: make([]bool, c.numSets)}
	for i := range r.tags {
		r.tags[i] = -1
	}
	return r
}

func (c *refCache) Access(addr, size int64, write bool) Cost {
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
	for line := first; line <= last; line++ {
		set := line % c.numSets
		if c.tags[set] == line {
			hits++
		} else {
			if c.tags[set] < 0 {
				c.occupied++
			}
			if c.tags[set] >= 0 && c.dirty[set] {
				dirtyMisses++
			} else {
				cleanMisses++
			}
			if c.dirty[set] {
				c.dirtyCnt--
			}
			c.tags[set] = line
			c.dirty[set] = false
		}
		if write && !c.dirty[set] {
			c.dirty[set] = true
			c.dirtyCnt++
		}
	}
	c.stats.Hits += hits
	c.stats.CleanMisses += cleanMisses
	c.stats.DirtyMisses += dirtyMisses

	return c.accessCost(size, cleanMisses, dirtyMisses, write)
}

func (c *refCache) Flush() {
	for i := range c.tags {
		c.tags[i] = -1
		c.dirty[i] = false
	}
	c.occupied, c.dirtyCnt = 0, 0
}

func (c *refCache) WritebackAll() float64 {
	if c.dirtyCnt == 0 {
		return 0
	}
	lines := c.dirtyCnt
	for set := range c.dirty {
		c.dirty[set] = false
	}
	c.dirtyCnt = 0
	nvAcc := memsim.Access{Threads: 28, Granularity: c.cfg.HWLineBytes}
	appAcc := memsim.Access{Threads: 28, Granularity: c.cfg.LineSize}
	t := c.fast.Read(lines*c.cfg.LineSize, appAcc)
	t += c.slow.Write(lines*c.cfg.LineSize, nvAcc)
	return t
}

// expand turns the extent list back into one (tag, dirty) per set.
func (c *Cache) expand() (tags []int64, dirty []bool) {
	tags, dirty = make([]int64, c.numSets), make([]bool, c.numSets)
	for i, s := range c.segs {
		end := c.numSets
		if i+1 < len(c.segs) {
			end = c.segs[i+1].start
		}
		for set := s.start; set < end; set++ {
			tags[set] = -1
			if s.state != 0 {
				tags[set] = (s.state>>1-1)*c.numSets + set
				dirty[set] = s.state&1 == 1
			}
		}
	}
	return tags, dirty
}

// checkCanonical asserts the extent list's invariant — starts strictly
// increasing from 0 and inside the set array, adjacent states different,
// no dirty-invalid state — and that the incremental counters are the
// per-state lengths summed.
func checkCanonical(t testing.TB, step int, c *Cache) {
	t.Helper()
	if len(c.segs) == 0 || c.segs[0].start != 0 {
		t.Fatalf("step %d: extent list does not start at set 0: %v", step, c.segs)
	}
	var occupied, dirty int64
	for i, s := range c.segs {
		end := c.numSets
		if i+1 < len(c.segs) {
			end = c.segs[i+1].start
			if c.segs[i+1].state == s.state {
				t.Fatalf("step %d: segments %d and %d share state %d: %v", step, i, i+1, s.state, c.segs)
			}
		}
		if end <= s.start {
			t.Fatalf("step %d: segment %d is empty or out of order: %v", step, i, c.segs)
		}
		if s.state == 1 || s.state < 0 {
			t.Fatalf("step %d: segment %d has impossible state %d", step, i, s.state)
		}
		if s.state != 0 {
			occupied += end - s.start
		}
		if s.state&1 == 1 {
			dirty += end - s.start
		}
	}
	if occupied != c.occupied || dirty != c.dirtyCnt {
		t.Fatalf("step %d: counters (%d occupied, %d dirty) but the list holds (%d, %d)",
			step, c.occupied, c.dirtyCnt, occupied, dirty)
	}
}

// equivalencePair builds two identically configured caches over separate
// platforms, so Access and the per-line reference can run the same stream
// without sharing tag state or traffic counters.
func equivalencePair(t testing.TB, fastCap, slowCap, lineSize int64) (*Cache, *refCache) {
	t.Helper()
	mk := func() *Cache {
		p := memsim.NewPlatform(memsim.PlatformConfig{
			FastCapacity: fastCap, SlowCapacity: slowCap, CopyThreads: 4,
		})
		c, err := New(p.Fast, p.Slow, Config{LineSize: lineSize, HWLineBytes: 64, MetadataFrac: 1.0 / 8})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	return mk(), newRefCache(mk())
}

// compareCaches asserts every observable of the two caches is identical —
// statistics, incremental counters, device traffic, and per-set tag and
// dirty bit — and that the extent list is in canonical form.
func compareCaches(t testing.TB, step int, batched *Cache, ref *refCache) {
	t.Helper()
	checkCanonical(t, step, batched)
	if batched.stats != ref.stats {
		t.Fatalf("step %d: stats diverged: batched %+v vs reference %+v", step, batched.stats, ref.stats)
	}
	if batched.occupied != ref.occupied || batched.dirtyCnt != ref.dirtyCnt {
		t.Fatalf("step %d: counters diverged: batched (%d, %d) vs reference (%d, %d)",
			step, batched.occupied, batched.dirtyCnt, ref.occupied, ref.dirtyCnt)
	}
	if a, b := batched.fast.Counters(), ref.fast.Counters(); a != b {
		t.Fatalf("step %d: DRAM traffic diverged: batched %+v vs reference %+v", step, a, b)
	}
	if a, b := batched.slow.Counters(), ref.slow.Counters(); a != b {
		t.Fatalf("step %d: NVRAM traffic diverged: batched %+v vs reference %+v", step, a, b)
	}
	tags, dirty := batched.expand()
	for set := range tags {
		if tags[set] != ref.tags[set] || dirty[set] != ref.dirty[set] {
			t.Fatalf("step %d: set %d diverged: batched (tag %d, dirty %v) vs reference (tag %d, dirty %v)",
				step, set, tags[set], dirty[set], ref.tags[set], ref.dirty[set])
		}
	}
}

// cachePair runs every operation on the extent-list Cache and on the
// per-line reference, comparing the results and then the whole state.
type cachePair struct {
	t       testing.TB
	batched *Cache
	ref     *refCache
	step    int
}

func (p *cachePair) access(addr, size int64, write bool) {
	p.t.Helper()
	got := p.batched.Access(addr, size, write)
	want := p.ref.Access(addr, size, write)
	if got != want {
		p.t.Fatalf("step %d: Access(%d, %d, write=%v) cost diverged: batched %+v vs reference %+v",
			p.step, addr, size, write, got, want)
	}
	p.compare()
}

func (p *cachePair) flush() {
	p.t.Helper()
	p.batched.Flush()
	p.ref.Flush()
	p.compare()
}

func (p *cachePair) writebackAll() {
	p.t.Helper()
	if got, want := p.batched.WritebackAll(), p.ref.WritebackAll(); got != want {
		p.t.Fatalf("step %d: WritebackAll diverged: batched %v vs reference %v", p.step, got, want)
	}
	p.compare()
}

func (p *cachePair) compare() {
	p.t.Helper()
	compareCaches(p.t, p.step, p.batched, p.ref)
	p.step++
}

// The trace and fuzz geometry: 16 sets, so laps are cheap to generate.
const (
	traceLine    = 64
	traceFastCap = 16 * traceLine
	traceSlowCap = 64 << 10
)

func newTracePair(t testing.TB) *cachePair {
	batched, ref := equivalencePair(t, traceFastCap, traceSlowCap, traceLine)
	return &cachePair{t: t, batched: batched, ref: ref}
}

// runAccessTrace replays one random access stream through Access and the
// per-line reference, comparing full cache state and modelled cost after
// every operation. Access sizes are drawn up to several times the cache
// capacity so the lap loop is exercised, not just a single run.
func runAccessTrace(t *testing.T, seed int64, ops int) {
	t.Helper()
	p := newTracePair(t)
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < ops; step++ {
		switch rng.Intn(40) {
		case 0, 1:
			p.flush()
		case 2:
			p.writebackAll()
		}
		write := rng.Intn(2) == 1
		var size int64
		switch rng.Intn(3) {
		case 0: // sub-line / few-line accesses, including unaligned
			size = 1 + rng.Int63n(4*traceLine)
		case 1: // around one cache lap
			size = traceFastCap/2 + rng.Int63n(traceFastCap)
		default: // multiple laps
			size = 2*traceFastCap + rng.Int63n(3*traceFastCap)
		}
		p.access(rng.Int63n(traceSlowCap-size), size, write)
	}
	p.writebackAll()
}

// TestAccessMatchesReferenceQuick is the headline 2LM equivalence
// property: on random access streams the extent-list Access is
// bit-identical to the seed per-line loop in statistics, tag state,
// traffic and modelled cost.
func TestAccessMatchesReferenceQuick(t *testing.T) {
	prop := func(seed int64) bool {
		runAccessTrace(t, seed, 200)
		return !t.Failed()
	}
	cfg := &quick.Config{MaxCount: 15}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzAccessMatchesReference decodes bytes into operations on the same
// 16-set cache, three bytes each: the first picks read, write, Flush or
// WritebackAll (the latter two rarely, so state builds up), the other two
// the first line and the length in half lines — up to eight laps.
func FuzzAccessMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 32, 0, 8, 16, 1, 4, 200, 0, 0, 255, 62, 0, 0, 0, 3, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newTracePair(t)
		for ; len(data) >= 3; data = data[3:] {
			switch op := data[0] % 64; op {
			case 62:
				p.flush()
				continue
			case 63:
				p.writebackAll()
				continue
			}
			// Start mid-line so odd half-line counts straddle.
			addr := int64(data[1])*traceLine + int64(data[0]>>6)*traceLine/4
			size := (int64(data[2]) + 1) * traceLine / 2
			p.access(addr, size, data[0]%2 == 1)
		}
		p.writebackAll()
	})
}

// TestAccessMatchesReferenceBoundaries pins the boundary cases of the lap
// loop: n == numSets (exactly one lap), n == 2*numSets, one line either
// side of both, and five laps, each starting at every set offset.
func TestAccessMatchesReferenceBoundaries(t *testing.T) {
	const lineSize = 64
	const numSets = 16
	for _, write := range []bool{false, true} {
		for _, lines := range []int64{numSets - 1, numSets, numSets + 1,
			2*numSets - 1, 2 * numSets, 2*numSets + 1, 5 * numSets} {
			for startSet := int64(0); startSet < numSets; startSet++ {
				batched, ref := equivalencePair(t, numSets*lineSize, 1<<20, lineSize)
				p := &cachePair{t: t, batched: batched, ref: ref}
				// Warm both caches identically so evictions happen.
				p.access(0, numSets*lineSize, true)
				p.access((numSets+startSet)*lineSize, lines*lineSize, write)
			}
		}
	}
}
