package alloc

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mustAlloc(t *testing.T, a Allocator, size int64) int64 {
	t.Helper()
	off, err := a.Alloc(size)
	if err != nil {
		t.Fatalf("Alloc(%d): %v", size, err)
	}
	return off
}

func checkInv(t *testing.T, a Allocator) {
	t.Helper()
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeListBasicAllocFree(t *testing.T) {
	f := NewFreeList(1<<20, FirstFit)
	a := mustAlloc(t, f, 1000)
	b := mustAlloc(t, f, 2000)
	checkInv(t, f)
	if a == b {
		t.Fatal("overlapping allocations")
	}
	if f.SizeOf(a) < 1000 || f.SizeOf(b) < 2000 {
		t.Fatalf("SizeOf too small: %d %d", f.SizeOf(a), f.SizeOf(b))
	}
	if f.Used() != f.SizeOf(a)+f.SizeOf(b) {
		t.Fatalf("Used = %d", f.Used())
	}
	f.Free(a)
	f.Free(b)
	checkInv(t, f)
	if f.Used() != 0 || f.FreeBytes() != f.Capacity() {
		t.Fatalf("heap not empty after frees: used=%d", f.Used())
	}
	if f.LargestFree() != f.Capacity() {
		t.Fatalf("free space not coalesced: largest=%d", f.LargestFree())
	}
}

func TestFreeListAlignment(t *testing.T) {
	f := NewFreeList(1<<20, FirstFit)
	off := mustAlloc(t, f, 1)
	if off%defaultAlign != 0 {
		t.Errorf("offset %d not aligned", off)
	}
	if f.SizeOf(off) != defaultAlign {
		t.Errorf("1-byte alloc rounded to %d, want %d", f.SizeOf(off), defaultAlign)
	}
}

func TestFreeListExhaustion(t *testing.T) {
	f := NewFreeList(4096, FirstFit)
	mustAlloc(t, f, 4096)
	if _, err := f.Alloc(64); err != ErrExhausted {
		t.Errorf("expected ErrExhausted, got %v", err)
	}
	checkInv(t, f)
}

// TestFreeListAllocBeyondCapacity: a request larger than the heap is
// ErrExhausted under both fits, even one so close to MaxInt64 that
// rounding it up to the alignment would overflow, and leaves the heap as
// it was.
func TestFreeListAllocBeyondCapacity(t *testing.T) {
	for _, fit := range []Fit{FirstFit, BestFit} {
		f := NewFreeList(1<<20, fit)
		mustAlloc(t, f, 1000)
		before := blockList(f)
		for _, size := range []int64{1<<20 + 1, math.MaxInt64 - 10, math.MaxInt64} {
			if off, err := f.Alloc(size); err != ErrExhausted {
				t.Errorf("%v: Alloc(%d) = %d, %v; want ErrExhausted", fit, size, off, err)
			}
		}
		checkInv(t, f)
		if got := blockList(f); !slices.Equal(got, before) || f.Used() != before[0].size {
			t.Errorf("%v: failed allocations changed the heap: blocks %v, used %d", fit, got, f.Used())
		}
	}
}

func TestFreeListRejectsBadSizes(t *testing.T) {
	f := NewFreeList(4096, FirstFit)
	for _, sz := range []int64{0, -1} {
		if _, err := f.Alloc(sz); err == nil || err == ErrExhausted {
			t.Errorf("Alloc(%d) = %v, want invalid-size error", sz, err)
		}
	}
}

func TestFreeListDoubleFreePanics(t *testing.T) {
	f := NewFreeList(4096, FirstFit)
	off := mustAlloc(t, f, 64)
	f.Free(off)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	f.Free(off)
}

func TestFreeListCoalescingMiddle(t *testing.T) {
	f := NewFreeList(3*defaultAlign, FirstFit)
	a := mustAlloc(t, f, defaultAlign)
	b := mustAlloc(t, f, defaultAlign)
	c := mustAlloc(t, f, defaultAlign)
	f.Free(a)
	f.Free(c)
	checkInv(t, f)
	if f.LargestFree() != defaultAlign {
		t.Fatalf("largest free = %d before middle free", f.LargestFree())
	}
	f.Free(b) // must merge with both neighbours
	checkInv(t, f)
	if f.LargestFree() != 3*defaultAlign {
		t.Fatalf("largest free = %d after middle free, want %d", f.LargestFree(), 3*defaultAlign)
	}
}

func TestFreeListFirstFitPrefersLowAddresses(t *testing.T) {
	f := NewFreeList(1<<20, FirstFit)
	a := mustAlloc(t, f, 1024)
	mustAlloc(t, f, 1024)
	f.Free(a)
	if got := mustAlloc(t, f, 512); got != a {
		t.Errorf("first-fit reused offset %d, want %d", got, a)
	}
}

func TestFreeListBestFitPicksTightestHole(t *testing.T) {
	f := NewFreeList(1<<20, BestFit)
	big := mustAlloc(t, f, 8192)
	sep1 := mustAlloc(t, f, 64)
	small := mustAlloc(t, f, 1024)
	sep2 := mustAlloc(t, f, 64)
	_ = sep1
	_ = sep2
	f.Free(big)
	f.Free(small)
	// A 1 KiB request should land in the 1 KiB hole, not the 8 KiB one.
	if got := mustAlloc(t, f, 1024); got != small {
		t.Errorf("best-fit chose offset %d, want tight hole at %d", got, small)
	}
	checkInv(t, f)
}

func TestFreeListBlocksOrdering(t *testing.T) {
	f := NewFreeList(1<<20, FirstFit)
	var want []int64
	for i := 0; i < 10; i++ {
		want = append(want, mustAlloc(t, f, 128))
	}
	f.Free(want[3])
	f.Free(want[7])
	want = append(want[:3], append(want[4:7], want[8:]...)...)
	var got []int64
	f.Blocks(func(off, size int64) bool {
		got = append(got, off)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Blocks returned %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Blocks[%d] = %d, want %d", i, got[i], want[i])
		}
		if i > 0 && got[i] <= got[i-1] {
			t.Fatalf("Blocks not address-ordered at %d", i)
		}
	}
}

func TestFreeListBlocksEarlyStop(t *testing.T) {
	f := NewFreeList(1<<20, FirstFit)
	for i := 0; i < 5; i++ {
		mustAlloc(t, f, 128)
	}
	n := 0
	f.Blocks(func(off, size int64) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early stop visited %d blocks", n)
	}
}

func TestFreeListBlocksIn(t *testing.T) {
	f := NewFreeList(1<<20, FirstFit)
	offs := make([]int64, 8)
	for i := range offs {
		offs[i] = mustAlloc(t, f, 128)
	}
	// Window covering blocks 2..4 (each block is 128 bytes).
	start := offs[2] + 10 // overlap partially into block 2
	length := int64(128*2 + 20)
	var got []int64
	f.BlocksIn(start, length, func(off, size int64) bool {
		got = append(got, off)
		return true
	})
	want := []int64{offs[2], offs[3], offs[4]}
	if len(got) != len(want) {
		t.Fatalf("BlocksIn = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("BlocksIn = %v, want %v", got, want)
		}
	}
}

func TestFreeListCompact(t *testing.T) {
	f := NewFreeList(1<<20, FirstFit)
	var offs []int64
	for i := 0; i < 20; i++ {
		offs = append(offs, mustAlloc(t, f, 1024))
	}
	// Free every other block to fragment.
	for i := 0; i < 20; i += 2 {
		f.Free(offs[i])
	}
	if f.FragmentationRatio() == 0 {
		t.Fatal("heap should be fragmented")
	}
	moves := map[int64]int64{}
	f.Compact(func(old, new, size int64) {
		if new >= old {
			t.Errorf("compaction moved block up: %d -> %d", old, new)
		}
		moves[old] = new
	})
	checkInv(t, f)
	if f.FragmentationRatio() != 0 {
		t.Errorf("fragmentation %v after compaction", f.FragmentationRatio())
	}
	if f.LargestFree() != f.FreeBytes() {
		t.Error("free space not contiguous after compaction")
	}
	// Surviving blocks must be packed from zero.
	var cursor int64
	f.Blocks(func(off, size int64) bool {
		if off != cursor {
			t.Errorf("block at %d, expected packed at %d", off, cursor)
		}
		cursor += size
		return true
	})
	if len(moves) == 0 {
		t.Error("compaction moved nothing")
	}
}

func TestFreeListCompactEmptyAndFull(t *testing.T) {
	f := NewFreeList(1<<16, FirstFit)
	f.Compact(func(old, new, size int64) { t.Error("moved block in empty heap") })
	checkInv(t, f)
	mustAlloc(t, f, 1<<16)
	f.Compact(func(old, new, size int64) { t.Error("moved block in full packed heap") })
	checkInv(t, f)
}

func TestFreeListZeroCapacity(t *testing.T) {
	f := NewFreeList(0, FirstFit)
	checkInv(t, f)
	if _, err := f.Alloc(64); err != ErrExhausted {
		t.Errorf("Alloc on empty heap = %v", err)
	}
	if f.LargestFree() != 0 {
		t.Error("largest free nonzero")
	}
}

func TestFitString(t *testing.T) {
	if FirstFit.String() != "first-fit" || BestFit.String() != "best-fit" {
		t.Error("fit strings wrong")
	}
	if Fit(7).String() != "Fit(7)" {
		t.Error("unknown fit string wrong")
	}
}

// opSequence drives an allocator with a deterministic random workload and
// validates invariants throughout. Shared with the buddy tests.
func opSequence(t *testing.T, a Allocator, seed int64, ops int, maxSize int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	live := map[int64]int64{} // offset -> requested size
	for i := 0; i < ops; i++ {
		if rng.Intn(3) > 0 || len(live) == 0 { // bias toward allocation
			size := 1 + rng.Int63n(maxSize)
			off, err := a.Alloc(size)
			if err == ErrExhausted {
				// Free something and move on.
				for o := range live {
					a.Free(o)
					delete(live, o)
					break
				}
				continue
			}
			if err != nil {
				t.Fatalf("op %d: Alloc(%d): %v", i, size, err)
			}
			if got := a.SizeOf(off); got < size {
				t.Fatalf("op %d: SizeOf(%d) = %d < requested %d", i, off, got, size)
			}
			// No overlap with any live block.
			for o, s := range live {
				os := a.SizeOf(o)
				_ = s
				if off < o+os && o < off+a.SizeOf(off) {
					t.Fatalf("op %d: overlap [%d,%d) with [%d,%d)", i, off, off+a.SizeOf(off), o, o+os)
				}
			}
			live[off] = size
		} else {
			for o := range live {
				a.Free(o)
				delete(live, o)
				break
			}
		}
		if i%64 == 0 {
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	for o := range live {
		a.Free(o)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if a.Used() != 0 {
		t.Fatalf("Used = %d after freeing everything", a.Used())
	}
	if a.LargestFree() != a.Capacity() {
		t.Fatalf("free space not fully coalesced: %d != %d", a.LargestFree(), a.Capacity())
	}
}

func TestFreeListRandomOpsFirstFit(t *testing.T) {
	opSequence(t, NewFreeList(1<<22, FirstFit), 1, 2000, 1<<14)
}

func TestFreeListRandomOpsBestFit(t *testing.T) {
	opSequence(t, NewFreeList(1<<22, BestFit), 2, 2000, 1<<14)
}

func TestFreeListQuickAllocFreeRoundTrip(t *testing.T) {
	// Property: for any list of sizes that fits, allocating all then
	// freeing all restores an empty, fully-coalesced heap.
	f := func(sizes []uint16) bool {
		fl := NewFreeList(1<<22, FirstFit)
		var offs []int64
		for _, s := range sizes {
			size := int64(s) + 1
			off, err := fl.Alloc(size)
			if err != nil {
				return true // exhaustion is fine, just stop
			}
			offs = append(offs, off)
		}
		for _, o := range offs {
			fl.Free(o)
		}
		return fl.CheckInvariants() == nil && fl.Used() == 0 &&
			fl.LargestFree() == fl.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFreeListQuickUsedPlusFreeIsCapacity(t *testing.T) {
	f := func(sizes []uint16, frees []uint8) bool {
		fl := NewFreeList(1<<22, BestFit)
		var offs []int64
		for _, s := range sizes {
			if off, err := fl.Alloc(int64(s) + 1); err == nil {
				offs = append(offs, off)
			}
		}
		for _, idx := range frees {
			if len(offs) == 0 {
				break
			}
			i := int(idx) % len(offs)
			fl.Free(offs[i])
			offs = append(offs[:i], offs[i+1:]...)
		}
		return fl.CheckInvariants() == nil && fl.Used()+fl.FreeBytes() == fl.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickCompactionInvariants(t *testing.T) {
	// Property: after any alloc/free history, compaction preserves the
	// allocated set (same count and sizes), packs blocks from zero, and
	// leaves the heap invariant-clean.
	f := func(sizes []uint16, frees []uint8) bool {
		fl := NewFreeList(1<<22, FirstFit)
		var offs []int64
		for _, s := range sizes {
			if off, err := fl.Alloc(int64(s) + 1); err == nil {
				offs = append(offs, off)
			}
		}
		for _, idx := range frees {
			if len(offs) == 0 {
				break
			}
			i := int(idx) % len(offs)
			fl.Free(offs[i])
			offs = append(offs[:i], offs[i+1:]...)
		}
		var beforeSizes []int64
		fl.Blocks(func(off, size int64) bool {
			beforeSizes = append(beforeSizes, size)
			return true
		})
		usedBefore := fl.Used()
		fl.Compact(func(old, new, size int64) {
			if new > old {
				t.Errorf("compaction moved block upward")
			}
		})
		if fl.CheckInvariants() != nil || fl.Used() != usedBefore {
			return false
		}
		var cursor int64
		ok := true
		i := 0
		fl.Blocks(func(off, size int64) bool {
			if off != cursor || i >= len(beforeSizes) || size != beforeSizes[i] {
				ok = false
				return false
			}
			cursor += size
			i++
			return true
		})
		return ok && i == len(beforeSizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// blockList returns f's allocated blocks in address order.
func blockList(f *FreeList) []span {
	var out []span
	f.Blocks(func(off, size int64) bool {
		out = append(out, span{off, size})
		return true
	})
	return out
}

// TestCompactIdempotent: compacting a compact heap — allocated blocks
// then at most one free block, what every iteration boundary's Defrag
// finds once only persistent tensors remain — moves nothing, allocates
// nothing, and leaves exactly the blocks Compact laid out, however the
// heap came back to the compact state.
func TestCompactIdempotent(t *testing.T) {
	for _, fit := range []Fit{FirstFit, BestFit} {
		f := NewFreeList(1<<20, fit)
		var offs []int64
		for i := 0; i < 64; i++ {
			offs = append(offs, mustAlloc(t, f, int64(512+64*i)))
		}
		for i := 0; i < len(offs); i += 3 {
			f.Free(offs[i])
		}
		moved := 0
		count := func(old, new, size int64) { moved++ }
		f.Compact(count)
		if moved == 0 {
			t.Fatal("fragmented heap compacted without moving anything")
		}
		checkInv(t, f)
		packed := blockList(f)

		// Leave and re-enter the compact state incrementally: transient
		// blocks above the packed ones come and go in a scrambled order.
		var top []int64
		for i := 0; i < 16; i++ {
			top = append(top, mustAlloc(t, f, int64(4096-128*i)))
		}
		for _, i := range []int{3, 0, 9, 15, 7, 1, 12, 4, 14, 2, 8, 5, 13, 6, 11, 10} {
			f.Free(top[i])
		}
		moved = 0
		if avg := testing.AllocsPerRun(10, func() { f.Compact(count) }); avg != 0 {
			t.Errorf("%v: Compact of a compact heap allocates %.1f objects, want 0", fit, avg)
		}
		if moved != 0 {
			t.Errorf("%v: Compact of a compact heap moved %d blocks", fit, moved)
		}
		checkInv(t, f)
		if got := blockList(f); !slices.Equal(got, packed) {
			t.Errorf("%v: blocks of an incrementally compact heap differ from the packed ones:\n%v\n%v", fit, got, packed)
		}
	}
}

// TestFreeListCycleAllocatesNothing: once its slices have grown, a heap
// runs a whole alloc / fragmenting free / compact / drain cycle — what a
// training iteration does to a device heap — without a Go allocation.
func TestFreeListCycleAllocatesNothing(t *testing.T) {
	for _, fit := range []Fit{FirstFit, BestFit} {
		f := NewFreeList(1<<20, fit)
		offs := make([]int64, 0, 32)
		cycle := func() {
			offs = offs[:0]
			for i := 0; i < cap(offs); i++ {
				off, err := f.Alloc(int64(512 + 64*(i%7)))
				if err != nil {
					t.Fatal(err)
				}
				offs = append(offs, off)
			}
			for i := 0; i < len(offs); i += 2 {
				f.Free(offs[i])
			}
			f.Compact(func(old, new, size int64) {})
			offs = offs[:0]
			f.Blocks(func(off, size int64) bool {
				offs = append(offs, off)
				return true
			})
			for _, off := range offs {
				f.Free(off)
			}
		}
		if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
			t.Errorf("%v: an alloc/free/compact cycle allocates %.1f objects, want 0", fit, avg)
		}
		checkInv(t, f)
		if f.Used() != 0 || f.LargestFree() != f.Capacity() {
			t.Errorf("%v: cycle left used=%d, largest free=%d", fit, f.Used(), f.LargestFree())
		}
	}
}
