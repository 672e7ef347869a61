package twolm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"cachedarrays/internal/memsim"
)

// AccessReference is the seed per-line implementation of Access, kept as
// the equivalence baseline the property tests below verify the batched
// Access against. Tag state, statistics and modelled costs are
// bit-identical between the two.
func (c *Cache) AccessReference(addr, size int64, write bool) Cost {
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

// equivalencePair builds two identically configured caches over separate
// platforms, so batched Access and the per-line AccessReference can run
// the same stream without sharing tag state or traffic counters.
func equivalencePair(t *testing.T, fastCap, slowCap, lineSize int64) (*Cache, *Cache) {
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
	return mk(), mk()
}

// compareCaches asserts every observable of the two caches is identical:
// statistics, tag array, dirty bits, incremental counters.
func compareCaches(t *testing.T, step int, batched, ref *Cache) {
	t.Helper()
	if batched.stats != ref.stats {
		t.Fatalf("step %d: stats diverged: batched %+v vs reference %+v", step, batched.stats, ref.stats)
	}
	if batched.occupied != ref.occupied || batched.dirtyCnt != ref.dirtyCnt {
		t.Fatalf("step %d: counters diverged: batched (%d, %d) vs reference (%d, %d)",
			step, batched.occupied, batched.dirtyCnt, ref.occupied, ref.dirtyCnt)
	}
	for set := range batched.tags {
		if batched.tags[set] != ref.tags[set] || batched.dirty[set] != ref.dirty[set] {
			t.Fatalf("step %d: set %d diverged: batched (tag %d, dirty %v) vs reference (tag %d, dirty %v)",
				step, set, batched.tags[set], batched.dirty[set], ref.tags[set], ref.dirty[set])
		}
	}
}

// runAccessTrace replays one random access stream through batched Access
// and per-line AccessReference, comparing full cache state and modelled
// cost after every access. Access sizes are drawn up to several times the
// cache capacity so the middle-lap arithmetic fold is exercised, not just
// the wrap-free segment walk.
func runAccessTrace(t *testing.T, seed int64, ops int) {
	t.Helper()
	const (
		lineSize = 64
		fastCap  = 16 * lineSize // 16 sets: laps are cheap to generate
		slowCap  = 64 << 10
	)
	batched, ref := equivalencePair(t, fastCap, slowCap, lineSize)
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < ops; step++ {
		if rng.Intn(20) == 0 {
			batched.Flush()
			ref.Flush()
		}
		write := rng.Intn(2) == 1
		var size int64
		switch rng.Intn(3) {
		case 0: // sub-line / few-line accesses, including unaligned
			size = 1 + rng.Int63n(4*lineSize)
		case 1: // around one cache lap
			size = fastCap/2 + rng.Int63n(fastCap)
		default: // multiple laps: middle fold path
			size = 2*fastCap + rng.Int63n(3*fastCap)
		}
		addr := rng.Int63n(slowCap - size)
		got := batched.Access(addr, size, write)
		want := ref.AccessReference(addr, size, write)
		if got != want {
			t.Fatalf("step %d: Access(%d, %d, write=%v) cost diverged: batched %+v vs reference %+v",
				step, addr, size, write, got, want)
		}
		compareCaches(t, step, batched, ref)
	}
	if wbB, wbR := batched.WritebackAll(), ref.WritebackAll(); wbB != wbR {
		t.Fatalf("WritebackAll diverged: batched %v vs reference %v", wbB, wbR)
	}
	compareCaches(t, ops, batched, ref)
}

// TestAccessMatchesReferenceQuick is the headline 2LM equivalence
// property: on random access streams the run-length batched Access is
// bit-identical to the seed per-line loop in statistics, tag state and
// modelled cost.
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

// TestAccessMatchesReferenceBoundaries pins the exact boundary cases of
// the batching arithmetic: n == numSets (one full lap, no fold),
// n == 2*numSets (fold with zero middle lines), and one-line-either-side
// of both, plus accesses starting at every set offset.
func TestAccessMatchesReferenceBoundaries(t *testing.T) {
	const lineSize = 64
	const numSets = 16
	for _, write := range []bool{false, true} {
		for _, lines := range []int64{numSets - 1, numSets, numSets + 1,
			2*numSets - 1, 2 * numSets, 2*numSets + 1, 5 * numSets} {
			for startSet := int64(0); startSet < numSets; startSet++ {
				batched, ref := equivalencePair(t, numSets*lineSize, 1<<20, lineSize)
				// Warm both caches identically so evictions happen.
				batched.Access(0, numSets*lineSize, true)
				ref.AccessReference(0, numSets*lineSize, true)
				addr := (numSets + startSet) * lineSize
				got := batched.Access(addr, lines*lineSize, write)
				want := ref.AccessReference(addr, lines*lineSize, write)
				if got != want {
					t.Fatalf("lines=%d startSet=%d write=%v: cost diverged: %+v vs %+v",
						lines, startSet, write, got, want)
				}
				compareCaches(t, int(lines), batched, ref)
			}
		}
	}
}
