package alloc

import (
	"fmt"
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

// block is one node in the address-ordered block list. The list always
// covers [0, capacity) exactly, alternating allocated and (coalesced) free
// blocks — two free blocks are never adjacent.
//
// Every block is additionally a node of the offset treap (left/right),
// and every free block a node of the size treap (sizeLeft/sizeRight); see
// the index commentary on FreeList.
type block struct {
	off, size  int64
	free       bool
	prev, next *block

	// Offset-treap node state. Keyed by off, heap-ordered by prio,
	// augmented with maxFree: the largest free-block size in the
	// subtree rooted here (0 if the subtree holds no free block).
	left, right *block
	prio        uint64
	maxFree     int64

	// Size-treap node state (free blocks only). Keyed by (size, off),
	// heap-ordered by the same prio.
	sizeLeft, sizeRight *block
}

// FreeList is an address-ordered free-list allocator with eager coalescing,
// configurable fit strategy, and compaction. It is the default heap
// allocator of the CachedArrays data manager.
//
// The block list is the source of truth for coalescing and iteration
// order, but every lookup the hot paths need is served by an index kept
// in lockstep with it:
//
//   - an offset treap over all blocks, augmented with the largest free
//     size per subtree — FirstFit Alloc descends it in O(log n) and
//     still returns the exact block a head-to-tail scan would (the
//     lowest-addressed fit), BlocksIn starts at the block containing
//     the range start instead of scanning from head, and LargestFree
//     is the root's augmentation, read in O(1);
//   - a (size, offset) treap over free blocks — BestFit Alloc takes its
//     ceiling in O(log n), again matching the scan's choice exactly
//     (smallest fit, lowest address on ties).
//
// Treap priorities are a deterministic hash of the block offset, so the
// index shape — and therefore every allocation decision — is a pure
// function of the block set: indexing changes no simulated result.
type FreeList struct {
	capacity int64
	align    int64
	fit      Fit
	head     *block
	byOff    map[int64]*block // allocated blocks, keyed by offset
	used     int64
	root     *block // offset treap over all blocks
	sizeRoot *block // size treap over free blocks
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
	f.byOff = make(map[int64]*block)
	f.used = 0
	f.root, f.sizeRoot = nil, nil
	if f.capacity == 0 {
		f.head = nil
		return
	}
	f.head = &block{off: 0, size: f.capacity, free: true}
	f.indexInsert(f.head)
}

// Capacity returns the heap size.
func (f *FreeList) Capacity() int64 { return f.capacity }

// Used returns bytes held by allocated blocks (after alignment rounding).
func (f *FreeList) Used() int64 { return f.used }

// FreeBytes returns the unallocated byte count.
func (f *FreeList) FreeBytes() int64 { return f.capacity - f.used }

// LargestFree returns the largest contiguous free block size. It is the
// offset treap root's augmentation — O(1), kept current by every
// split/coalesce instead of recomputed by a full scan.
func (f *FreeList) LargestFree() int64 {
	if f.root == nil {
		return 0
	}
	return f.root.maxFree
}

// Alloc reserves size bytes (rounded up to the alignment) and returns the
// block offset, or ErrExhausted.
func (f *FreeList) Alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("alloc: invalid allocation size %d", size)
	}
	need := alignUp(size, f.align)
	var chosen *block
	if f.fit == FirstFit {
		chosen = treapFirstFit(f.root, need)
	} else {
		chosen = treapBestFit(f.sizeRoot, need)
	}
	if chosen == nil {
		return 0, ErrExhausted
	}
	f.sizeRoot = sizeTreapRemove(f.sizeRoot, chosen)
	if chosen.size > need {
		// Split: the tail stays free.
		tail := &block{off: chosen.off + need, size: chosen.size - need, free: true,
			prev: chosen, next: chosen.next}
		if chosen.next != nil {
			chosen.next.prev = tail
		}
		chosen.next = tail
		chosen.size = need
		f.indexInsert(tail)
	}
	chosen.free = false
	treapRefresh(f.root, chosen.off)
	f.byOff[chosen.off] = chosen
	f.used += chosen.size
	return chosen.off, nil
}

// Free releases the block at offset, coalescing with free neighbours.
func (f *FreeList) Free(offset int64) {
	b, ok := f.byOff[offset]
	if !ok {
		panic(fmt.Sprintf("alloc: free of unknown offset %d", offset))
	}
	delete(f.byOff, offset)
	f.used -= b.size
	b.free = true
	// Coalesce with next, then prev. The absorbed block leaves both
	// treaps; the absorbing block's size change re-keys it in the size
	// treap and refreshes its offset-treap path.
	if n := b.next; n != nil && n.free {
		f.indexRemove(n)
		b.size += n.size
		b.next = n.next
		if n.next != nil {
			n.next.prev = b
		}
	}
	if p := b.prev; p != nil && p.free {
		f.root = treapRemove(f.root, b.off)
		f.sizeRoot = sizeTreapRemove(f.sizeRoot, p)
		p.size += b.size
		f.sizeRoot = sizeTreapInsert(f.sizeRoot, p)
		treapRefresh(f.root, p.off)
		p.next = b.next
		if b.next != nil {
			b.next.prev = p
		}
		return
	}
	f.sizeRoot = sizeTreapInsert(f.sizeRoot, b)
	treapRefresh(f.root, b.off)
}

// SizeOf returns the (aligned) size of the allocated block at offset.
func (f *FreeList) SizeOf(offset int64) int64 {
	b, ok := f.byOff[offset]
	if !ok {
		panic(fmt.Sprintf("alloc: SizeOf of unknown offset %d", offset))
	}
	return b.size
}

// Blocks iterates allocated blocks in address order.
func (f *FreeList) Blocks(fn func(offset, size int64) bool) {
	for b := f.head; b != nil; b = b.next {
		if b.free {
			continue
		}
		if !fn(b.off, b.size) {
			return
		}
	}
}

// BlocksIn iterates allocated blocks overlapping [start, start+length).
// The offset treap locates the block containing start, so the walk covers
// only the range itself instead of scanning from head.
func (f *FreeList) BlocksIn(start, length int64, fn func(offset, size int64) bool) {
	end := start + length
	b := treapFloor(f.root, start)
	if b == nil {
		b = f.head
	}
	for ; b != nil; b = b.next {
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

// Compact slides all allocated blocks to the bottom of the heap in address
// order. The move callback must relocate the owner's data before the next
// call (block moves never overlap destructively because compaction only
// moves blocks downward).
//
// A heap that is already compact — no free block, or a single one at the
// top — is left untouched: nothing would move, and because treap shape is
// a pure function of the block set (blockPrio), the rebuild below would
// reproduce the list and both indexes exactly. The size treap holds the
// free blocks, so the test is O(1).
func (f *FreeList) Compact(move func(oldOffset, newOffset, size int64)) {
	if fr := f.sizeRoot; fr == nil ||
		(fr.sizeLeft == nil && fr.sizeRight == nil && fr.next == nil) {
		return
	}
	var cursor int64
	var blocks []*block
	for b := f.head; b != nil; b = b.next {
		if !b.free {
			blocks = append(blocks, b)
		}
	}
	// Rebuild the list from scratch: allocated blocks packed at the
	// bottom, one free block on top.
	var head, tail *block
	appendBlock := func(nb *block) {
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
		nb := &block{off: cursor, size: b.size}
		f.byOff[cursor] = nb
		appendBlock(nb)
		cursor += b.size
	}
	if cursor < f.capacity {
		appendBlock(&block{off: cursor, size: f.capacity - cursor, free: true})
	}
	f.head = head
	if f.capacity == 0 {
		f.head = nil
	}
	f.rebuildIndex()
}

// rebuildIndex reconstructs both treaps from the block list (after a
// wholesale rebuild like Compact).
func (f *FreeList) rebuildIndex() {
	f.root, f.sizeRoot = nil, nil
	for b := f.head; b != nil; b = b.next {
		b.left, b.right, b.sizeLeft, b.sizeRight = nil, nil, nil, nil
		f.indexInsert(b)
	}
}

// indexInsert adds a block to the offset treap and, if free, the size
// treap. The block's treap links must be clear.
func (f *FreeList) indexInsert(b *block) {
	b.prio = blockPrio(b.off)
	f.root = treapInsert(f.root, b)
	if b.free {
		f.sizeRoot = sizeTreapInsert(f.sizeRoot, b)
	}
}

// indexRemove deletes a block from both treaps (size treap only if free).
func (f *FreeList) indexRemove(b *block) {
	if b.free {
		f.sizeRoot = sizeTreapRemove(f.sizeRoot, b)
	}
	f.root = treapRemove(f.root, b.off)
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

// CheckInvariants validates the block list: exact coverage of
// [0, capacity), no adjacent free blocks, consistent links, byOff matching
// the allocated set, used-byte accounting, and both treap indexes agreeing
// with the list.
func (f *FreeList) CheckInvariants() error {
	if f.capacity == 0 {
		if f.head != nil || len(f.byOff) != 0 || f.used != 0 || f.root != nil || f.sizeRoot != nil {
			return fmt.Errorf("alloc: zero-capacity heap has state")
		}
		return nil
	}
	var cursor, used, largest int64
	seen, total, freeBlocks := 0, 0, 0
	prevFree := false
	var prev *block
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
		} else {
			freeBlocks++
			if b.size > largest {
				largest = b.size
			}
		}
		prevFree = b.free
		cursor += b.size
		prev = b
		total++
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
	if got := f.LargestFree(); got != largest {
		return fmt.Errorf("alloc: cached largest free %d != scanned %d", got, largest)
	}
	return f.checkTreaps(total, freeBlocks)
}

// checkTreaps validates both treaps against the block list: in-order
// traversals match the list's blocks (all blocks for the offset treap,
// free blocks in (size, offset) order for the size treap), heap priority
// order holds, and the maxFree augmentation is exact at every node.
func (f *FreeList) checkTreaps(total, freeBlocks int) error {
	count := 0
	expect := f.head
	var err error
	var walk func(b *block) int64
	walk = func(b *block) int64 {
		if b == nil || err != nil {
			return 0
		}
		lmax := walk(b.left)
		if err == nil {
			count++
			if expect == nil || expect != b {
				err = fmt.Errorf("alloc: offset treap order diverges from list at offset %d", b.off)
				return 0
			}
			expect = expect.next
		}
		if err == nil && b.left != nil && b.left.prio > b.prio {
			err = fmt.Errorf("alloc: offset treap heap violation at offset %d", b.off)
		}
		if err == nil && b.right != nil && b.right.prio > b.prio {
			err = fmt.Errorf("alloc: offset treap heap violation at offset %d", b.off)
		}
		rmax := walk(b.right)
		max := lmax
		if rmax > max {
			max = rmax
		}
		if b.free && b.size > max {
			max = b.size
		}
		if err == nil && b.maxFree != max {
			err = fmt.Errorf("alloc: offset treap maxFree %d != actual %d at offset %d",
				b.maxFree, max, b.off)
		}
		return max
	}
	walk(f.root)
	if err != nil {
		return err
	}
	if count != total {
		return fmt.Errorf("alloc: offset treap has %d nodes, list has %d blocks", count, total)
	}
	scount := 0
	var sprev *block
	var swalk func(b *block)
	swalk = func(b *block) {
		if b == nil || err != nil {
			return
		}
		swalk(b.sizeLeft)
		if err == nil {
			scount++
			if !b.free {
				err = fmt.Errorf("alloc: allocated block at %d in size treap", b.off)
				return
			}
			if sprev != nil && !sizeLess(sprev, b) {
				err = fmt.Errorf("alloc: size treap out of order at offset %d", b.off)
				return
			}
			sprev = b
		}
		if err == nil && b.sizeLeft != nil && b.sizeLeft.prio > b.prio {
			err = fmt.Errorf("alloc: size treap heap violation at offset %d", b.off)
		}
		if err == nil && b.sizeRight != nil && b.sizeRight.prio > b.prio {
			err = fmt.Errorf("alloc: size treap heap violation at offset %d", b.off)
		}
		swalk(b.sizeRight)
	}
	swalk(f.sizeRoot)
	if err != nil {
		return err
	}
	if scount != freeBlocks {
		return fmt.Errorf("alloc: size treap has %d nodes, list has %d free blocks", scount, freeBlocks)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Offset treap: all blocks, keyed by offset, augmented with the largest
// free size per subtree.

// blockPrio derives a deterministic treap priority from a block offset
// (splitmix64 finalizer), so the index shape is a pure function of the
// block set and results are reproducible run to run.
func blockPrio(off int64) uint64 {
	z := uint64(off) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// treapPull recomputes b's maxFree from its children and own state.
func treapPull(b *block) {
	max := int64(0)
	if b.free {
		max = b.size
	}
	if b.left != nil && b.left.maxFree > max {
		max = b.left.maxFree
	}
	if b.right != nil && b.right.maxFree > max {
		max = b.right.maxFree
	}
	b.maxFree = max
}

func treapRotateRight(t *block) *block {
	l := t.left
	t.left = l.right
	l.right = t
	treapPull(t)
	treapPull(l)
	return l
}

func treapRotateLeft(t *block) *block {
	r := t.right
	t.right = r.left
	r.left = t
	treapPull(t)
	treapPull(r)
	return r
}

func treapInsert(t, b *block) *block {
	if t == nil {
		treapPull(b)
		return b
	}
	if b.off < t.off {
		t.left = treapInsert(t.left, b)
		if t.left.prio > t.prio {
			return treapRotateRight(t)
		}
	} else {
		t.right = treapInsert(t.right, b)
		if t.right.prio > t.prio {
			return treapRotateLeft(t)
		}
	}
	treapPull(t)
	return t
}

func treapMerge(a, b *block) *block {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio > b.prio {
		a.right = treapMerge(a.right, b)
		treapPull(a)
		return a
	}
	b.left = treapMerge(a, b.left)
	treapPull(b)
	return b
}

func treapRemove(t *block, off int64) *block {
	if t == nil {
		panic(fmt.Sprintf("alloc: offset treap remove of unknown offset %d", off))
	}
	switch {
	case off < t.off:
		t.left = treapRemove(t.left, off)
	case off > t.off:
		t.right = treapRemove(t.right, off)
	default:
		merged := treapMerge(t.left, t.right)
		t.left, t.right = nil, nil
		return merged
	}
	treapPull(t)
	return t
}

// treapRefresh recomputes maxFree along the search path to off after an
// in-place change to that block's size or free flag.
func treapRefresh(t *block, off int64) {
	if t == nil {
		return
	}
	if off < t.off {
		treapRefresh(t.left, off)
	} else if off > t.off {
		treapRefresh(t.right, off)
	}
	treapPull(t)
}

// treapFirstFit returns the lowest-offset free block with size >= need —
// exactly the block a head-to-tail first-fit scan would pick.
func treapFirstFit(t *block, need int64) *block {
	for t != nil {
		if t.left != nil && t.left.maxFree >= need {
			t = t.left
			continue
		}
		if t.free && t.size >= need {
			return t
		}
		if t.right == nil || t.right.maxFree < need {
			return nil
		}
		t = t.right
	}
	return nil
}

// treapFloor returns the block with the largest offset <= off, or nil.
// Because blocks tile the heap, this is the block containing off.
func treapFloor(t *block, off int64) *block {
	var floor *block
	for t != nil {
		if t.off <= off {
			floor = t
			t = t.right
		} else {
			t = t.left
		}
	}
	return floor
}

// ---------------------------------------------------------------------------
// Size treap: free blocks, keyed by (size, offset).

// sizeLess orders free blocks by (size, offset) — the best-fit scan's
// preference: smallest fit first, lowest address on ties.
func sizeLess(a, b *block) bool {
	return a.size < b.size || (a.size == b.size && a.off < b.off)
}

func sizeTreapRotateRight(t *block) *block {
	l := t.sizeLeft
	t.sizeLeft = l.sizeRight
	l.sizeRight = t
	return l
}

func sizeTreapRotateLeft(t *block) *block {
	r := t.sizeRight
	t.sizeRight = r.sizeLeft
	r.sizeLeft = t
	return r
}

func sizeTreapInsert(t, b *block) *block {
	if t == nil {
		return b
	}
	if sizeLess(b, t) {
		t.sizeLeft = sizeTreapInsert(t.sizeLeft, b)
		if t.sizeLeft.prio > t.prio {
			return sizeTreapRotateRight(t)
		}
	} else {
		t.sizeRight = sizeTreapInsert(t.sizeRight, b)
		if t.sizeRight.prio > t.prio {
			return sizeTreapRotateLeft(t)
		}
	}
	return t
}

func sizeTreapMerge(a, b *block) *block {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio > b.prio {
		a.sizeRight = sizeTreapMerge(a.sizeRight, b)
		return a
	}
	b.sizeLeft = sizeTreapMerge(a, b.sizeLeft)
	return b
}

// sizeTreapRemove deletes b from the size treap. b's (size, off) key must
// be unchanged since insertion; callers re-key a resizing block by
// removing it before the size change and reinserting after.
func sizeTreapRemove(t, b *block) *block {
	if t == nil {
		panic(fmt.Sprintf("alloc: size treap remove of unknown block at %d", b.off))
	}
	if t == b {
		merged := sizeTreapMerge(t.sizeLeft, t.sizeRight)
		t.sizeLeft, t.sizeRight = nil, nil
		return merged
	}
	if sizeLess(b, t) {
		t.sizeLeft = sizeTreapRemove(t.sizeLeft, b)
	} else {
		t.sizeRight = sizeTreapRemove(t.sizeRight, b)
	}
	return t
}

// treapBestFit returns the free block with the smallest (size, offset)
// key among those with size >= need — exactly the block an address-order
// best-fit scan would pick.
func treapBestFit(t *block, need int64) *block {
	var best *block
	for t != nil {
		if t.size >= need {
			best = t
			t = t.sizeLeft
		} else {
			t = t.sizeRight
		}
	}
	return best
}

// sortedOffsets returns the allocated offsets in ascending order (testing
// helper shared with the buddy allocator).
func sortedOffsets[V any](m map[int64]V) []int64 {
	out := make([]int64, 0, len(m))
	for off := range m {
		out = append(out, off)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
