// Copyright 2022 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// This file is Go 1.24's pdqsort — the generated pdqsortCmpFunc family of
// $GOROOT/src/slices/zsortanyfunc.go that slices.SortFunc runs — copied
// into pagemig, specialised to cand under "hotter first" (cmp(x, y) < 0
// is written hotter(x, y)), and made lazy. Every helper below is the
// original's body, renamed without the CmpFunc suffix, with that one
// substitution; only pdqsort's loop differs, in where the right-hand side
// of a partition goes.
//
// Why a lazy copy is exact: a pdqsort step on [a,b) reads data[a-1..b)
// and writes only data[a..b), and data[a-1] is a pivot (or the end of an
// equal run) already in its final place. So disjoint ranges can be sorted
// in any order, and the right side of a partition can wait on a stack —
// with the limit, wasBalanced and wasPartitioned the original's recursion
// or loop continuation would have handed it — until a read reaches it.
// Every range that does get processed makes the original's swaps, so
// the prefix a reader has asked for is exactly the one slices.SortFunc
// would leave. Expected work is O(n + k log k) for a read prefix of k.

package pagemig

import "math/bits"

// hotOrder hands out a candidate list in "hotter first" order, sorting
// only as far as it has been read. Candidates of a "colder first" list
// are stored with negated hotness: x.hot > y.hot on negated values is
// x.hot < y.hot on the originals, exactly (hotness is never NaN, and
// -0 == 0).
type hotOrder struct {
	c       []cand
	sorted  int         // c[:sorted] is final
	pending []sortRange // unsorted ranges of c[sorted:], leftmost last; all between them is final
}

// sortRange is a range pdqsort has yet to sort, with the state its loop
// would enter the range with.
type sortRange struct {
	a, b, limit                 int
	wasBalanced, wasPartitioned bool
}

// reset starts a fresh order over c, as slices.SortFunc(c, ...) starts.
func (o *hotOrder) reset(c []cand) {
	o.c, o.sorted = c, 0
	o.pending = append(o.pending[:0], sortRange{0, len(c), bits.Len(uint(len(c))), true, true})
}

// at returns the candidate at index i of the sorted list.
func (o *hotOrder) at(i int) cand {
	if i >= o.sorted {
		o.sortTo(i)
	}
	return o.c[i]
}

// sortTo sorts pending ranges, leftmost first, until c[i] is final.
func (o *hotOrder) sortTo(i int) {
	for len(o.pending) > 0 {
		r := o.pending[len(o.pending)-1]
		if r.a > i {
			o.sorted = r.a
			return
		}
		o.pending = o.pending[:len(o.pending)-1]
		o.pdqsort(r)
	}
	o.sorted = len(o.c)
}

// hotter is the comparison: x sorts before y.
func hotter(x, y cand) bool { return x.hot > y.hot }

type sortedHint int // hint for pdqsort when choosing the pivot

const (
	unknownHint sortedHint = iota
	increasingHint
	decreasingHint
)

// xorshift paper: https://www.jstatsoft.org/article/view/v008i14/xorshift.pdf
type xorshift uint64

func (r *xorshift) Next() uint64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return uint64(*r)
}

func nextPowerOfTwo(length int) uint {
	return 1 << bits.Len(uint(length))
}

// insertionSort sorts data[a:b] using insertion sort.
func insertionSort(data []cand, a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && hotter(data[j], data[j-1]); j-- {
			data[j], data[j-1] = data[j-1], data[j]
		}
	}
}

// siftDown implements the heap property on data[lo:hi].
// first is an offset into the array where the root of the heap lies.
func siftDown(data []cand, lo, hi, first int) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			break
		}
		if child+1 < hi && hotter(data[first+child], data[first+child+1]) {
			child++
		}
		if !hotter(data[first+root], data[first+child]) {
			return
		}
		data[first+root], data[first+child] = data[first+child], data[first+root]
		root = child
	}
}

func heapSort(data []cand, a, b int) {
	first := a
	lo := 0
	hi := b - a

	// Build heap with greatest element at top.
	for i := (hi - 1) / 2; i >= 0; i-- {
		siftDown(data, i, hi, first)
	}

	// Pop elements, largest first, into end of data.
	for i := hi - 1; i >= 0; i-- {
		data[first], data[first+i] = data[first+i], data[first]
		siftDown(data, lo, i, first)
	}
}

// pdqsort sorts r until its leftmost element is final, pushing the right
// side of each partition onto o.pending. The original sorts the shorter
// side of a partition by recursion, with fresh state, and loops on the
// longer side with this partition's state; here the left side is always
// the one continued and the right side the one pushed, each with the
// state the original would give it.
// The algorithm based on pattern-defeating quicksort(pdqsort), but without the optimizations from BlockQuicksort.
// pdqsort paper: https://arxiv.org/pdf/2106.05123.pdf
// C++ implementation: https://github.com/orlp/pdqsort
// Rust implementation: https://docs.rs/pdqsort/latest/pdqsort/
// limit is the number of allowed bad (very unbalanced) pivots before falling back to heapsort.
func (o *hotOrder) pdqsort(r sortRange) {
	const maxInsertion = 12

	data := o.c
	a, b, limit := r.a, r.b, r.limit
	wasBalanced := r.wasBalanced       // whether the last partitioning was reasonably balanced
	wasPartitioned := r.wasPartitioned // whether the slice was already partitioned

	for {
		length := b - a

		if length <= maxInsertion {
			insertionSort(data, a, b)
			return
		}

		// Fall back to heapsort if too many bad choices were made.
		if limit == 0 {
			heapSort(data, a, b)
			return
		}

		// If the last partitioning was imbalanced, we need to breaking patterns.
		if !wasBalanced {
			breakPatterns(data, a, b)
			limit--
		}

		pivot, hint := choosePivot(data, a, b)
		if hint == decreasingHint {
			reverseRange(data, a, b)
			// The chosen pivot was pivot-a elements after the start of the array.
			// After reversing it is pivot-a elements before the end of the array.
			// The idea came from Rust's implementation.
			pivot = (b - 1) - (pivot - a)
			hint = increasingHint
		}

		// The slice is likely already sorted.
		if wasBalanced && wasPartitioned && hint == increasingHint {
			if partialInsertionSort(data, a, b) {
				return
			}
		}

		// Probably the slice contains many duplicate elements, partition the slice into
		// elements equal to and elements greater than the pivot.
		if a > 0 && !hotter(data[a-1], data[pivot]) {
			mid := partitionEqual(data, a, b, pivot)
			a = mid
			continue
		}

		mid, alreadyPartitioned := partition(data, a, b, pivot)
		wasPartitioned = alreadyPartitioned

		leftLen, rightLen := mid-a, b-mid
		balanceThreshold := length / 8
		if leftLen < rightLen {
			// The original recurses into the left side and loops on the right.
			wasBalanced = leftLen >= balanceThreshold
			o.pending = append(o.pending, sortRange{mid + 1, b, limit, wasBalanced, wasPartitioned})
			wasBalanced, wasPartitioned = true, true
		} else {
			// The original recurses into the right side and loops on the left.
			wasBalanced = rightLen >= balanceThreshold
			o.pending = append(o.pending, sortRange{mid + 1, b, limit, true, true})
		}
		b = mid
	}
}

// partition does one quicksort partition.
// Let p = data[pivot]
// Moves elements in data[a:b] around, so that data[i]<p and data[j]>=p for i<newpivot and j>newpivot.
// On return, data[newpivot] = p
func partition(data []cand, a, b, pivot int) (newpivot int, alreadyPartitioned bool) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for i <= j && hotter(data[i], data[a]) {
		i++
	}
	for i <= j && !hotter(data[j], data[a]) {
		j--
	}
	if i > j {
		data[j], data[a] = data[a], data[j]
		return j, true
	}
	data[i], data[j] = data[j], data[i]
	i++
	j--

	for {
		for i <= j && hotter(data[i], data[a]) {
			i++
		}
		for i <= j && !hotter(data[j], data[a]) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	data[j], data[a] = data[a], data[j]
	return j, false
}

// partitionEqual partitions data[a:b] into elements equal to data[pivot] followed by elements greater than data[pivot].
// It assumed that data[a:b] does not contain elements smaller than the data[pivot].
func partitionEqual(data []cand, a, b, pivot int) (newpivot int) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for {
		for i <= j && !hotter(data[a], data[i]) {
			i++
		}
		for i <= j && hotter(data[a], data[j]) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	return i
}

// partialInsertionSort partially sorts a slice, returns true if the slice is sorted at the end.
func partialInsertionSort(data []cand, a, b int) bool {
	const (
		maxSteps         = 5  // maximum number of adjacent out-of-order pairs that will get shifted
		shortestShifting = 50 // don't shift any elements on short arrays
	)
	i := a + 1
	for j := 0; j < maxSteps; j++ {
		for i < b && !hotter(data[i], data[i-1]) {
			i++
		}

		if i == b {
			return true
		}

		if b-a < shortestShifting {
			return false
		}

		data[i], data[i-1] = data[i-1], data[i]

		// Shift the smaller one to the left.
		if i-a >= 2 {
			for j := i - 1; j >= 1; j-- {
				if !hotter(data[j], data[j-1]) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
		// Shift the greater one to the right.
		if b-i >= 2 {
			for j := i + 1; j < b; j++ {
				if !hotter(data[j], data[j-1]) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
	}
	return false
}

// breakPatterns scatters some elements around in an attempt to break some patterns
// that might cause imbalanced partitions in quicksort.
func breakPatterns(data []cand, a, b int) {
	length := b - a
	if length >= 8 {
		random := xorshift(length)
		modulus := nextPowerOfTwo(length)

		for idx := a + (length/4)*2 - 1; idx <= a+(length/4)*2+1; idx++ {
			other := int(uint(random.Next()) & (modulus - 1))
			if other >= length {
				other -= length
			}
			data[idx], data[a+other] = data[a+other], data[idx]
		}
	}
}

// choosePivot chooses a pivot in data[a:b].
//
// [0,8): chooses a static pivot.
// [8,shortestNinther): uses the simple median-of-three method.
// [shortestNinther,∞): uses the Tukey ninther method.
func choosePivot(data []cand, a, b int) (pivot int, hint sortedHint) {
	const (
		shortestNinther = 50
		maxSwaps        = 4 * 3
	)

	l := b - a

	var (
		swaps int
		i     = a + l/4*1
		j     = a + l/4*2
		k     = a + l/4*3
	)

	if l >= 8 {
		if l >= shortestNinther {
			// Tukey ninther method, the idea came from Rust's implementation.
			i = medianAdjacent(data, i, &swaps)
			j = medianAdjacent(data, j, &swaps)
			k = medianAdjacent(data, k, &swaps)
		}
		// Find the median among i, j, k and stores it into j.
		j = median(data, i, j, k, &swaps)
	}

	switch swaps {
	case 0:
		return j, increasingHint
	case maxSwaps:
		return j, decreasingHint
	default:
		return j, unknownHint
	}
}

// order2 returns x,y where data[x] <= data[y], where x,y=a,b or x,y=b,a.
func order2(data []cand, a, b int, swaps *int) (int, int) {
	if hotter(data[b], data[a]) {
		*swaps++
		return b, a
	}
	return a, b
}

// median returns x where data[x] is the median of data[a],data[b],data[c], where x is a, b, or c.
func median(data []cand, a, b, c int, swaps *int) int {
	a, b = order2(data, a, b, swaps)
	b, c = order2(data, b, c, swaps)
	a, b = order2(data, a, b, swaps)
	return b
}

// medianAdjacent finds the median of data[a - 1], data[a], data[a + 1] and stores the index into a.
func medianAdjacent(data []cand, a int, swaps *int) int {
	return median(data, a-1, a, a+1, swaps)
}

func reverseRange(data []cand, a, b int) {
	i := a
	j := b - 1
	for i < j {
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
}
