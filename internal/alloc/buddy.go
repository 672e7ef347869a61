package alloc

import (
	"fmt"
	"math/bits"
	"slices"
)

// Buddy is a binary buddy allocator. Block sizes are powers of two between
// minBlock and capacity; freeing merges buddy pairs eagerly. Compared to
// the free list it trades internal fragmentation (allocations round up to a
// power of two) for O(log n) operations and zero external-fragmentation
// surprises — a useful alternative heap for workloads with many same-size
// tensors, and an ablation point for the allocator choice.
type Buddy struct {
	capacity int64 // power of two
	minBlock int64 // power of two
	orders   int   // number of size classes
	// freeLists[o] holds offsets of free blocks of size minBlock<<o.
	freeLists []map[int64]struct{}
	// allocated maps offset -> order.
	allocated map[int64]int
	used      int64
}

var _ Allocator = (*Buddy)(nil)

// DefaultMinBlock is the smallest buddy block (4 KiB, one page).
const DefaultMinBlock = 4 << 10

// NewBuddy creates a buddy allocator. capacity must be a power of two and a
// multiple of minBlock; minBlock must be a power of two (0 selects
// DefaultMinBlock).
func NewBuddy(capacity, minBlock int64) (*Buddy, error) {
	if minBlock == 0 {
		minBlock = DefaultMinBlock
	}
	if minBlock <= 0 || minBlock&(minBlock-1) != 0 {
		return nil, fmt.Errorf("alloc: buddy min block %d is not a power of two", minBlock)
	}
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		return nil, fmt.Errorf("alloc: buddy capacity %d is not a power of two", capacity)
	}
	if capacity < minBlock {
		return nil, fmt.Errorf("alloc: buddy capacity %d below min block %d", capacity, minBlock)
	}
	b := &Buddy{
		capacity: capacity,
		minBlock: minBlock,
		orders:   bits.TrailingZeros64(uint64(capacity/minBlock)) + 1,
	}
	b.Reset()
	return b, nil
}

// Reset empties the allocator.
func (b *Buddy) Reset() {
	b.freeLists = make([]map[int64]struct{}, b.orders)
	for i := range b.freeLists {
		b.freeLists[i] = make(map[int64]struct{})
	}
	b.allocated = make(map[int64]int)
	b.used = 0
	b.freeLists[b.orders-1][0] = struct{}{}
}

// blockSize returns the byte size of a block of the given order.
func (b *Buddy) blockSize(order int) int64 { return b.minBlock << order }

// orderFor returns the smallest order whose block size fits size.
func (b *Buddy) orderFor(size int64) int {
	o := 0
	for b.blockSize(o) < size {
		o++
	}
	return o
}

// Capacity returns the heap size.
func (b *Buddy) Capacity() int64 { return b.capacity }

// Used returns bytes held by allocated blocks (power-of-two rounded).
func (b *Buddy) Used() int64 { return b.used }

// FreeBytes returns Capacity - Used.
func (b *Buddy) FreeBytes() int64 { return b.capacity - b.used }

// LargestFree returns the size of the largest free block.
func (b *Buddy) LargestFree() int64 {
	for o := b.orders - 1; o >= 0; o-- {
		if len(b.freeLists[o]) > 0 {
			return b.blockSize(o)
		}
	}
	return 0
}

// Alloc reserves a block of at least size bytes.
func (b *Buddy) Alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("alloc: invalid allocation size %d", size)
	}
	if size > b.capacity {
		return 0, ErrExhausted
	}
	want := b.orderFor(size)
	if want >= b.orders {
		return 0, ErrExhausted
	}
	// Find the smallest free order >= want.
	from := -1
	for o := want; o < b.orders; o++ {
		if len(b.freeLists[o]) > 0 {
			from = o
			break
		}
	}
	if from == -1 {
		return 0, ErrExhausted
	}
	// Take any block from that list (pick the lowest offset for
	// determinism).
	var off int64 = -1
	for o := range b.freeLists[from] {
		if off == -1 || o < off {
			off = o
		}
	}
	delete(b.freeLists[from], off)
	// Split down to the wanted order, returning the upper halves.
	for o := from; o > want; o-- {
		half := b.blockSize(o - 1)
		b.freeLists[o-1][off+half] = struct{}{}
	}
	b.allocated[off] = want
	b.used += b.blockSize(want)
	return off, nil
}

// Free releases the block at offset, merging buddies eagerly.
func (b *Buddy) Free(offset int64) {
	order, ok := b.allocated[offset]
	if !ok {
		panic(fmt.Sprintf("alloc: buddy free of unknown offset %d", offset))
	}
	delete(b.allocated, offset)
	b.used -= b.blockSize(order)
	off := offset
	for order < b.orders-1 {
		buddy := off ^ b.blockSize(order)
		if _, free := b.freeLists[order][buddy]; !free {
			break
		}
		delete(b.freeLists[order], buddy)
		if buddy < off {
			off = buddy
		}
		order++
	}
	b.freeLists[order][off] = struct{}{}
}

// SizeOf returns the (power-of-two) size of the allocated block at offset.
func (b *Buddy) SizeOf(offset int64) int64 {
	order, ok := b.allocated[offset]
	if !ok {
		panic(fmt.Sprintf("alloc: buddy SizeOf of unknown offset %d", offset))
	}
	return b.blockSize(order)
}

// Blocks iterates allocated blocks in address order.
func (b *Buddy) Blocks(fn func(offset, size int64) bool) {
	for _, off := range sortedOffsets(b.allocated) {
		if !fn(off, b.blockSize(b.allocated[off])) {
			return
		}
	}
}

// BlocksIn iterates allocated blocks overlapping [start, start+length).
func (b *Buddy) BlocksIn(start, length int64, fn func(offset, size int64) bool) {
	end := start + length
	for _, off := range sortedOffsets(b.allocated) {
		size := b.blockSize(b.allocated[off])
		if off >= end {
			return
		}
		if off+size <= start {
			continue
		}
		if !fn(off, size) {
			return
		}
	}
}

// CheckInvariants validates that allocated and free blocks tile the heap
// exactly, free buddies are never both free (eager merging), and used-byte
// accounting is consistent.
func (b *Buddy) CheckInvariants() error {
	type span struct{ off, size int64 }
	var spans []span
	var used int64
	for off, order := range b.allocated {
		spans = append(spans, span{off, b.blockSize(order)})
		used += b.blockSize(order)
	}
	for o, list := range b.freeLists {
		size := b.blockSize(o)
		for off := range list {
			if off%size != 0 {
				return fmt.Errorf("alloc: buddy free block %d misaligned for order %d", off, o)
			}
			if o < b.orders-1 {
				buddy := off ^ size
				if _, free := b.freeLists[o][buddy]; free && buddy > off {
					return fmt.Errorf("alloc: unmerged free buddies %d/%d at order %d", off, buddy, o)
				}
			}
			spans = append(spans, span{off, size})
		}
	}
	if used != b.used {
		return fmt.Errorf("alloc: buddy used accounting %d != actual %d", b.used, used)
	}
	// Spans must tile [0, capacity).
	offs := make(map[int64]span, len(spans))
	for _, s := range spans {
		if _, dup := offs[s.off]; dup {
			return fmt.Errorf("alloc: buddy duplicate span at %d", s.off)
		}
		offs[s.off] = s
	}
	var cursor int64
	for cursor < b.capacity {
		s, ok := offs[cursor]
		if !ok {
			return fmt.Errorf("alloc: buddy hole at %d", cursor)
		}
		cursor += s.size
	}
	if cursor != b.capacity {
		return fmt.Errorf("alloc: buddy spans overrun capacity (%d)", cursor)
	}
	return nil
}

// sortedOffsets returns the allocated offsets in ascending order.
func sortedOffsets(m map[int64]int) []int64 {
	out := make([]int64, 0, len(m))
	for off := range m {
		out = append(out, off)
	}
	slices.Sort(out)
	return out
}
