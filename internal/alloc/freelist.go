package alloc

import (
	"fmt"
	"slices"
	"sort"
)

// Fit selects the free-block search strategy of a FreeList.
type Fit int

const (
	// FirstFit takes the lowest-addressed free block that fits. Cheap
	// and keeps allocations dense at low addresses.
	FirstFit Fit = iota
	// BestFit takes the smallest free block that fits, reducing external
	// fragmentation for mixed-size workloads.
	BestFit
)

func (f Fit) String() string {
	switch f {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	default:
		return fmt.Sprintf("Fit(%d)", int(f))
	}
}

// span is one block of a FreeList heap: the bytes [off, off+size).
type span struct{ off, size int64 }

// FreeList is an address-ordered free-list allocator with eager coalescing,
// configurable fit strategy, and compaction. It is the default heap
// allocator of the CachedArrays data manager.
//
// The heap is two address-ordered span slices that together tile
// [0, capacity): blocks holds the allocated blocks and free the free ones,
// coalesced so that no two free blocks are adjacent. Paper-scale runs keep
// a few dozen free blocks per heap at most allocations and never more than
// a few hundred, so Alloc and LargestFree scan free linearly while Free,
// SizeOf and BlocksIn binary-search blocks. Neither slice holds a pointer,
// and a warmed-up heap allocates nothing.
type FreeList struct {
	capacity int64
	align    int64
	fit      Fit
	blocks   []span // allocated, address order
	free     []span // free, address order, never adjacent to each other
	used     int64
}

var (
	_ Allocator = (*FreeList)(nil)
	_ Compactor = (*FreeList)(nil)
)

// NewFreeList creates a free-list allocator over a heap of the given
// capacity with 64-byte block alignment.
func NewFreeList(capacity int64, fit Fit) *FreeList {
	if capacity < 0 {
		panic(fmt.Sprintf("alloc: negative capacity %d", capacity))
	}
	f := &FreeList{capacity: capacity, align: defaultAlign, fit: fit}
	f.Reset()
	return f
}

// Reset empties the allocator.
func (f *FreeList) Reset() {
	f.blocks, f.free, f.used = f.blocks[:0], f.free[:0], 0
	if f.capacity > 0 {
		f.free = append(f.free, span{0, f.capacity})
	}
}

// Capacity returns the heap size.
func (f *FreeList) Capacity() int64 { return f.capacity }

// Used returns bytes held by allocated blocks (after alignment rounding).
func (f *FreeList) Used() int64 { return f.used }

// FreeBytes returns the unallocated byte count.
func (f *FreeList) FreeBytes() int64 { return f.capacity - f.used }

// LargestFree returns the largest contiguous free block size.
func (f *FreeList) LargestFree() int64 {
	var largest int64
	for _, s := range f.free {
		largest = max(largest, s.size)
	}
	return largest
}

// Alloc reserves size bytes (rounded up to the alignment) and returns the
// block offset, or ErrExhausted.
func (f *FreeList) Alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("alloc: invalid allocation size %d", size)
	}
	if size > f.capacity {
		// Checked before rounding, which would overflow near MaxInt64.
		return 0, ErrExhausted
	}
	need := alignUp(size, f.align)
	chosen := -1
	for i, s := range f.free {
		if s.size < need {
			continue
		}
		if f.fit == FirstFit {
			chosen = i
			break
		}
		if chosen < 0 || s.size < f.free[chosen].size {
			chosen = i
		}
	}
	if chosen < 0 {
		return 0, ErrExhausted
	}
	// Split: the block takes the head of the free span, the tail stays free.
	off := f.free[chosen].off
	if f.free[chosen].size == need {
		f.free = slices.Delete(f.free, chosen, chosen+1)
	} else {
		f.free[chosen].off += need
		f.free[chosen].size -= need
	}
	f.blocks = slices.Insert(f.blocks, search(f.blocks, off), span{off, need})
	f.used += need
	return off, nil
}

// Free releases the block at offset, coalescing with free neighbours.
func (f *FreeList) Free(offset int64) {
	i, ok := f.find(offset)
	if !ok {
		panic(fmt.Sprintf("alloc: free of unknown offset %d", offset))
	}
	b := f.blocks[i]
	f.blocks = slices.Delete(f.blocks, i, i+1)
	f.used -= b.size
	// free[j-1] and free[j] are the free spans below and above b.
	j := search(f.free, b.off)
	below := j > 0 && f.free[j-1].off+f.free[j-1].size == b.off
	above := j < len(f.free) && b.off+b.size == f.free[j].off
	switch {
	case below && above:
		f.free[j-1].size += b.size + f.free[j].size
		f.free = slices.Delete(f.free, j, j+1)
	case below:
		f.free[j-1].size += b.size
	case above:
		f.free[j] = span{b.off, b.size + f.free[j].size}
	default:
		f.free = slices.Insert(f.free, j, b)
	}
}

// SizeOf returns the (aligned) size of the allocated block at offset.
func (f *FreeList) SizeOf(offset int64) int64 {
	i, ok := f.find(offset)
	if !ok {
		panic(fmt.Sprintf("alloc: SizeOf of unknown offset %d", offset))
	}
	return f.blocks[i].size
}

// find returns the index of the allocated block at offset.
func (f *FreeList) find(offset int64) (int, bool) {
	i := search(f.blocks, offset)
	return i, i < len(f.blocks) && f.blocks[i].off == offset
}

// search returns the index of the first span in s starting at or after off.
func search(s []span, off int64) int {
	return sort.Search(len(s), func(i int) bool { return s[i].off >= off })
}

// Blocks iterates allocated blocks in address order.
func (f *FreeList) Blocks(fn func(offset, size int64) bool) {
	for _, b := range f.blocks {
		if !fn(b.off, b.size) {
			return
		}
	}
}

// BlocksIn iterates allocated blocks overlapping [start, start+length),
// starting at the first block that ends after start.
func (f *FreeList) BlocksIn(start, length int64, fn func(offset, size int64) bool) {
	end := start + length
	i := sort.Search(len(f.blocks), func(i int) bool { return f.blocks[i].off+f.blocks[i].size > start })
	for _, b := range f.blocks[i:] {
		if b.off >= end || !fn(b.off, b.size) {
			return
		}
	}
}

// Compact slides all allocated blocks to the bottom of the heap in address
// order, leaving one free block on top. The move callback must relocate
// the owner's data before the next call (block moves never overlap
// destructively because compaction only moves blocks downward). A block
// already in place is not reported, so compacting a compact heap moves
// nothing.
func (f *FreeList) Compact(move func(oldOffset, newOffset, size int64)) {
	var cursor int64
	for i, b := range f.blocks {
		if b.off != cursor && move != nil {
			move(b.off, cursor, b.size)
		}
		f.blocks[i].off = cursor
		cursor += b.size
	}
	f.free = f.free[:0]
	if cursor < f.capacity {
		f.free = append(f.free, span{cursor, f.capacity - cursor})
	}
}

// FragmentationRatio returns 1 - LargestFree/FreeBytes: 0 when all free
// space is contiguous, approaching 1 as it shatters. Returns 0 for a full
// or empty-free heap.
func (f *FreeList) FragmentationRatio() float64 {
	free := f.FreeBytes()
	if free == 0 {
		return 0
	}
	return 1 - float64(f.LargestFree())/float64(free)
}

// CheckInvariants merge-walks both slices in address order and requires
// them to tile [0, capacity) exactly with positive sizes and no two free
// blocks adjacent, and the used-byte count to match the allocated blocks.
// Exact tiling also proves each slice is address-ordered.
func (f *FreeList) CheckInvariants() error {
	var cursor, used int64
	i, j := 0, 0
	prevFree := false
	for i < len(f.blocks) || j < len(f.free) {
		isFree := i == len(f.blocks) || j < len(f.free) && f.free[j].off < f.blocks[i].off
		var s span
		if isFree {
			s, j = f.free[j], j+1
		} else {
			s, i = f.blocks[i], i+1
			used += s.size
		}
		if s.off != cursor {
			return fmt.Errorf("alloc: gap or overlap at offset %d (expected %d)", s.off, cursor)
		}
		if s.size <= 0 {
			return fmt.Errorf("alloc: non-positive block size %d at offset %d", s.size, s.off)
		}
		if isFree && prevFree {
			return fmt.Errorf("alloc: adjacent free blocks at offset %d", s.off)
		}
		prevFree = isFree
		cursor += s.size
	}
	if cursor != f.capacity {
		return fmt.Errorf("alloc: blocks cover %d bytes, capacity %d", cursor, f.capacity)
	}
	if used != f.used {
		return fmt.Errorf("alloc: used accounting %d != actual %d", f.used, used)
	}
	return nil
}
