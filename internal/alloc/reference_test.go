package alloc

import "fmt"

// Reference is the seed free-list allocator kept verbatim as an
// equivalence baseline: Alloc scans the address-ordered block list from
// head on every call (O(blocks)), and LargestFree rescans it. The
// property tests drive Reference and FreeList with identical traces and
// require identical offsets and statistics. It lives in a _test.go file
// so the non-test build holds one allocator implementation.
type Reference struct {
	capacity int64
	align    int64
	fit      Fit
	head     *refBlock
	byOff    map[int64]*refBlock
	used     int64
}

type refBlock struct {
	off, size  int64
	free       bool
	prev, next *refBlock
}

var (
	_ Allocator = (*Reference)(nil)
	_ Compactor = (*Reference)(nil)
)

// NewReference creates the scan-based baseline allocator over a heap of
// the given capacity with 64-byte block alignment.
func NewReference(capacity int64, fit Fit) *Reference {
	if capacity < 0 {
		panic(fmt.Sprintf("alloc: negative capacity %d", capacity))
	}
	r := &Reference{capacity: capacity, align: defaultAlign, fit: fit}
	r.Reset()
	return r
}

// Reset empties the allocator.
func (f *Reference) Reset() {
	f.byOff = make(map[int64]*refBlock)
	f.used = 0
	if f.capacity == 0 {
		f.head = nil
		return
	}
	f.head = &refBlock{off: 0, size: f.capacity, free: true}
}

// Capacity returns the heap size.
func (f *Reference) Capacity() int64 { return f.capacity }

// Used returns bytes held by allocated blocks.
func (f *Reference) Used() int64 { return f.used }

// FreeBytes returns the unallocated byte count.
func (f *Reference) FreeBytes() int64 { return f.capacity - f.used }

// LargestFree returns the largest contiguous free block size by scanning
// the whole block list.
func (f *Reference) LargestFree() int64 {
	var max int64
	for b := f.head; b != nil; b = b.next {
		if b.free && b.size > max {
			max = b.size
		}
	}
	return max
}

// Alloc reserves size bytes with a head-to-tail first-fit or best-fit
// scan — the behaviour the indexed allocator must reproduce exactly.
func (f *Reference) Alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("alloc: invalid allocation size %d", size)
	}
	need := alignUp(size, f.align)
	var chosen *refBlock
	for b := f.head; b != nil; b = b.next {
		if !b.free || b.size < need {
			continue
		}
		if f.fit == FirstFit {
			chosen = b
			break
		}
		if chosen == nil || b.size < chosen.size {
			chosen = b
		}
	}
	if chosen == nil {
		return 0, ErrExhausted
	}
	if chosen.size > need {
		tail := &refBlock{off: chosen.off + need, size: chosen.size - need, free: true,
			prev: chosen, next: chosen.next}
		if chosen.next != nil {
			chosen.next.prev = tail
		}
		chosen.next = tail
		chosen.size = need
	}
	chosen.free = false
	f.byOff[chosen.off] = chosen
	f.used += chosen.size
	return chosen.off, nil
}

// Free releases the block at offset, coalescing with free neighbours.
func (f *Reference) Free(offset int64) {
	b, ok := f.byOff[offset]
	if !ok {
		panic(fmt.Sprintf("alloc: free of unknown offset %d", offset))
	}
	delete(f.byOff, offset)
	f.used -= b.size
	b.free = true
	if n := b.next; n != nil && n.free {
		b.size += n.size
		b.next = n.next
		if n.next != nil {
			n.next.prev = b
		}
	}
	if p := b.prev; p != nil && p.free {
		p.size += b.size
		p.next = b.next
		if b.next != nil {
			b.next.prev = p
		}
	}
}

// SizeOf returns the (aligned) size of the allocated block at offset.
func (f *Reference) SizeOf(offset int64) int64 {
	b, ok := f.byOff[offset]
	if !ok {
		panic(fmt.Sprintf("alloc: SizeOf of unknown offset %d", offset))
	}
	return b.size
}

// Blocks iterates allocated blocks in address order.
func (f *Reference) Blocks(fn func(offset, size int64) bool) {
	for b := f.head; b != nil; b = b.next {
		if b.free {
			continue
		}
		if !fn(b.off, b.size) {
			return
		}
	}
}

// BlocksIn iterates allocated blocks overlapping [start, start+length),
// scanning from head.
func (f *Reference) BlocksIn(start, length int64, fn func(offset, size int64) bool) {
	end := start + length
	for b := f.head; b != nil; b = b.next {
		if b.off >= end {
			return
		}
		if b.free || b.off+b.size <= start {
			continue
		}
		if !fn(b.off, b.size) {
			return
		}
	}
}

// Compact is the seed FreeList.Compact kept verbatim: it re-creates every
// block, compact heap or not. The fuzz target requires FreeList.Compact,
// which slides its blocks in place, to stay observably identical to it.
func (f *Reference) Compact(move func(oldOffset, newOffset, size int64)) {
	var cursor int64
	var blocks []*refBlock
	for b := f.head; b != nil; b = b.next {
		if !b.free {
			blocks = append(blocks, b)
		}
	}
	// Rebuild the list from scratch: allocated blocks packed at the
	// bottom, one free block on top.
	var head, tail *refBlock
	appendBlock := func(nb *refBlock) {
		if tail == nil {
			head, tail = nb, nb
			return
		}
		tail.next = nb
		nb.prev = tail
		tail = nb
	}
	for _, b := range blocks {
		old := b.off
		if old != cursor && move != nil {
			move(old, cursor, b.size)
		}
		delete(f.byOff, old)
		nb := &refBlock{off: cursor, size: b.size}
		f.byOff[cursor] = nb
		appendBlock(nb)
		cursor += b.size
	}
	if cursor < f.capacity {
		appendBlock(&refBlock{off: cursor, size: f.capacity - cursor, free: true})
	}
	f.head = head
	if f.capacity == 0 {
		f.head = nil
	}
}

// FragmentationRatio returns 1 - LargestFree/FreeBytes.
func (f *Reference) FragmentationRatio() float64 {
	free := f.FreeBytes()
	if free == 0 {
		return 0
	}
	return 1 - float64(f.LargestFree())/float64(free)
}

// CheckInvariants validates the block list.
func (f *Reference) CheckInvariants() error {
	if f.capacity == 0 {
		if f.head != nil || len(f.byOff) != 0 || f.used != 0 {
			return fmt.Errorf("alloc: zero-capacity heap has state")
		}
		return nil
	}
	var cursor, used int64
	seen := 0
	prevFree := false
	var prev *refBlock
	for b := f.head; b != nil; b = b.next {
		if b.prev != prev {
			return fmt.Errorf("alloc: broken prev link at offset %d", b.off)
		}
		if b.off != cursor {
			return fmt.Errorf("alloc: gap or overlap at offset %d (expected %d)", b.off, cursor)
		}
		if b.size <= 0 {
			return fmt.Errorf("alloc: non-positive block size %d at offset %d", b.size, b.off)
		}
		if b.free && prevFree {
			return fmt.Errorf("alloc: adjacent free blocks at offset %d", b.off)
		}
		if !b.free {
			used += b.size
			got, ok := f.byOff[b.off]
			if !ok || got != b {
				return fmt.Errorf("alloc: allocated block at %d missing from index", b.off)
			}
			seen++
		}
		prevFree = b.free
		cursor += b.size
		prev = b
	}
	if cursor != f.capacity {
		return fmt.Errorf("alloc: blocks cover %d bytes, capacity %d", cursor, f.capacity)
	}
	if used != f.used {
		return fmt.Errorf("alloc: used accounting %d != actual %d", f.used, used)
	}
	if seen != len(f.byOff) {
		return fmt.Errorf("alloc: index has %d entries, list has %d allocated", len(f.byOff), seen)
	}
	return nil
}
