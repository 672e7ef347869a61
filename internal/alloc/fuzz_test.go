package alloc

import (
	"slices"
	"testing"
)

// FuzzAllocFreeSequence drives the FreeList and the linked-list Reference
// allocator with the same operation sequence decoded from the fuzz input
// and requires them to stay observably identical: same offsets, same
// errors, same usage statistics, the same SizeOf for every live block,
// the same BlocksIn visits over a window decoded from each op's argument,
// and both internally consistent at every step. A free op whose argument
// is >= 0xF0 compacts both heaps instead and requires the same
// move(old, new, size) sequence and the same surviving blocks. The
// Reference allocator is the executable specification; any divergence is
// a bug in the FreeList.
func FuzzAllocFreeSequence(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0x10, 0x81, 0x20, 0x02, 0x00, 0x41, 0x7f, 0x03, 0x01})
	f.Add([]byte{0, 0xff, 0xff, 0x02, 0x00, 0x00, 0x08, 0x42, 0x02, 0x01, 0x81, 0x33})
	// Fragment, compact, compact again (nothing left to move), carry on.
	f.Add([]byte{0, 0x00, 0x10, 0x00, 0x20, 0x00, 0x30, 0x02, 0x00, 0x02, 0xf0, 0x02, 0xf1, 0x00, 0x08, 0x02, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		fit := FirstFit
		if data[0]&1 == 1 {
			fit = BestFit
		}
		const capacity = 1 << 16
		fl := NewFreeList(capacity, fit)
		ref := NewReference(capacity, fit)
		var live []int64 // offsets allocated and not yet freed

		check := func(step int, arg byte) {
			if err := fl.CheckInvariants(); err != nil {
				t.Fatalf("step %d: freelist: %v", step, err)
			}
			if err := ref.CheckInvariants(); err != nil {
				t.Fatalf("step %d: reference: %v", step, err)
			}
			if fl.Used() != ref.Used() || fl.FreeBytes() != ref.FreeBytes() {
				t.Fatalf("step %d: usage diverged: freelist %d/%d, reference %d/%d",
					step, fl.Used(), fl.FreeBytes(), ref.Used(), ref.FreeBytes())
			}
			if fl.LargestFree() != ref.LargestFree() {
				t.Fatalf("step %d: LargestFree diverged: %d vs %d",
					step, fl.LargestFree(), ref.LargestFree())
			}
			for _, off := range live {
				if fl.SizeOf(off) != ref.SizeOf(off) {
					t.Fatalf("step %d: SizeOf(%d) diverged: %d vs %d", step, off, fl.SizeOf(off), ref.SizeOf(off))
				}
			}
			// A window anywhere in the heap, up to a quarter of it long;
			// length 0 visits only a block that strictly contains start.
			start, length := int64(arg)<<8, int64(arg&0x1f)<<9
			var got, want []blockMove
			fl.BlocksIn(start, length, func(off, size int64) bool { got = append(got, blockMove{off, off, size}); return true })
			ref.BlocksIn(start, length, func(off, size int64) bool { want = append(want, blockMove{off, off, size}); return true })
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: BlocksIn(%d, %d) diverged:\nfreelist  %v\nreference %v", step, start, length, got, want)
			}
		}

		ops := data[1:]
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 3 {
			case 0, 1: // alloc; sizes span sub-align to multi-KiB
				size := int64(arg)*97 + 1
				offA, errA := fl.Alloc(size)
				offB, errB := ref.Alloc(size)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("step %d: alloc(%d) errors diverged: %v vs %v", i, size, errA, errB)
				}
				if errA != nil {
					if errA != ErrExhausted || errB != ErrExhausted {
						t.Fatalf("step %d: alloc(%d) unexpected errors: %v / %v", i, size, errA, errB)
					}
					continue
				}
				if offA != offB {
					t.Fatalf("step %d: alloc(%d) offsets diverged: %d vs %d", i, size, offA, offB)
				}
				if fl.SizeOf(offA) != ref.SizeOf(offB) {
					t.Fatalf("step %d: SizeOf(%d) diverged: %d vs %d",
						i, offA, fl.SizeOf(offA), ref.SizeOf(offB))
				}
				live = append(live, offA)
			case 2: // free a pseudo-random live block, or compact
				if arg >= 0xf0 {
					compactBoth(t, i, fl, ref, live)
					break
				}
				if len(live) == 0 {
					continue
				}
				k := int(arg) % len(live)
				off := live[k]
				live = append(live[:k], live[k+1:]...)
				fl.Free(off)
				ref.Free(off)
			}
			check(i, arg)
		}

		// Drain: every remaining block must free cleanly and the heaps
		// must end empty and identical.
		for _, off := range live {
			fl.Free(off)
			ref.Free(off)
		}
		live = nil
		check(len(ops), 0)
		if fl.Used() != 0 {
			t.Fatalf("drained heap still has %d used bytes", fl.Used())
		}
	})
}

// blockMove is one Compact callback invocation.
type blockMove struct{ old, new, size int64 }

// compactBoth compacts the indexed list and the reference, requires the
// same move sequence and the same surviving blocks from both, and rewrites
// live (the caller's allocated offsets) to the blocks' new homes.
func compactBoth(t *testing.T, step int, fl *FreeList, ref *Reference, live []int64) {
	t.Helper()
	var got, want []blockMove
	fl.Compact(func(old, new, size int64) { got = append(got, blockMove{old, new, size}) })
	ref.Compact(func(old, new, size int64) { want = append(want, blockMove{old, new, size}) })
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: compact moves diverged:\nfreelist  %v\nreference %v", step, got, want)
	}
	var gotBlocks, wantBlocks []blockMove
	fl.Blocks(func(off, size int64) bool { gotBlocks = append(gotBlocks, blockMove{off, off, size}); return true })
	ref.Blocks(func(off, size int64) bool { wantBlocks = append(wantBlocks, blockMove{off, off, size}); return true })
	if !slices.Equal(gotBlocks, wantBlocks) {
		t.Fatalf("step %d: blocks diverged after compact:\nfreelist  %v\nreference %v", step, gotBlocks, wantBlocks)
	}
	// Moves only go downward in address order, so no destination is a
	// later move's source: remapping each live offset once is exact.
	to := make(map[int64]int64, len(want))
	for _, m := range want {
		to[m.old] = m.new
	}
	for i, off := range live {
		if n, ok := to[off]; ok {
			live[i] = n
		}
	}
}
