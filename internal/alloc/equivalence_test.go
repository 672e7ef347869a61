package alloc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// runEquivalenceTrace drives the span-slice FreeList and the seed's
// linked-list Reference through one identical random alloc/free/query
// trace and fails on the first observable divergence. The FreeList must
// be indistinguishable: same offsets from Alloc, same errors, same
// statistics, same BlocksIn visit order.
func runEquivalenceTrace(t *testing.T, fit Fit, seed int64, ops int) {
	t.Helper()
	const capacity = 1 << 20
	fl := NewFreeList(capacity, fit)
	ref := NewReference(capacity, fit)
	rng := rand.New(rand.NewSource(seed))
	var live []int64

	compare := func(step int) {
		if fl.Used() != ref.Used() || fl.FreeBytes() != ref.FreeBytes() {
			t.Fatalf("step %d: used/free diverged: indexed (%d, %d) vs reference (%d, %d)",
				step, fl.Used(), fl.FreeBytes(), ref.Used(), ref.FreeBytes())
		}
		if fl.LargestFree() != ref.LargestFree() {
			t.Fatalf("step %d: LargestFree diverged: indexed %d vs reference %d",
				step, fl.LargestFree(), ref.LargestFree())
		}
		if fl.FragmentationRatio() != ref.FragmentationRatio() {
			t.Fatalf("step %d: FragmentationRatio diverged: indexed %v vs reference %v",
				step, fl.FragmentationRatio(), ref.FragmentationRatio())
		}
	}

	for step := 0; step < ops; step++ {
		switch op := rng.Intn(10); {
		case op < 6 || len(live) == 0: // alloc, biased so the heap fills up
			size := 1 + rng.Int63n(8<<10)
			got, gotErr := fl.Alloc(size)
			want, wantErr := ref.Alloc(size)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("step %d: Alloc(%d) errors diverged: indexed %v vs reference %v",
					step, size, gotErr, wantErr)
			}
			if gotErr == nil {
				if got != want {
					t.Fatalf("step %d: Alloc(%d) offsets diverged: indexed %d vs reference %d",
						step, size, got, want)
				}
				if fl.SizeOf(got) != ref.SizeOf(want) {
					t.Fatalf("step %d: SizeOf(%d) diverged: indexed %d vs reference %d",
						step, got, fl.SizeOf(got), ref.SizeOf(want))
				}
				live = append(live, got)
			}
		case op < 9: // free a random live block
			i := rng.Intn(len(live))
			off := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			fl.Free(off)
			ref.Free(off)
		default: // window query: identical visit sequences
			start := rng.Int63n(capacity)
			length := 1 + rng.Int63n(capacity-start)
			type span struct{ off, size int64 }
			var a, b []span
			fl.BlocksIn(start, length, func(off, size int64) bool {
				a = append(a, span{off, size})
				return true
			})
			ref.BlocksIn(start, length, func(off, size int64) bool {
				b = append(b, span{off, size})
				return true
			})
			if len(a) != len(b) {
				t.Fatalf("step %d: BlocksIn(%d,%d) visited %d vs %d blocks",
					step, start, length, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("step %d: BlocksIn(%d,%d) visit %d diverged: %+v vs %+v",
						step, start, length, i, a[i], b[i])
				}
			}
		}
		compare(step)
		if err := fl.CheckInvariants(); err != nil {
			t.Fatalf("step %d: indexed invariants: %v", step, err)
		}
		if err := ref.CheckInvariants(); err != nil {
			t.Fatalf("step %d: reference invariants: %v", step, err)
		}
	}
	// Drain everything: the final coalesce chain must also agree.
	for _, off := range live {
		fl.Free(off)
		ref.Free(off)
	}
	compare(ops)
	if fl.Used() != 0 || fl.LargestFree() != capacity {
		t.Fatalf("drained heap: used %d, largest free %d", fl.Used(), fl.LargestFree())
	}
}

// TestFreeListMatchesReferenceQuick is the headline equivalence property:
// for randomly seeded traces, the span-slice free list behaves exactly
// like the seed linked-list allocator under both fit policies.
func TestFreeListMatchesReferenceQuick(t *testing.T) {
	for _, fit := range []Fit{FirstFit, BestFit} {
		t.Run(fit.String(), func(t *testing.T) {
			prop := func(seed int64) bool {
				runEquivalenceTrace(t, fit, seed, 300)
				return !t.Failed()
			}
			cfg := &quick.Config{MaxCount: 12}
			if testing.Short() {
				cfg.MaxCount = 3
			}
			if err := quick.Check(prop, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFreeListMatchesReferenceLongTrace runs one long fixed-seed trace so
// deep fragmentation (thousands of steps of churn) is exercised even when
// quick keeps its traces short.
func TestFreeListMatchesReferenceLongTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("long trace skipped in -short mode")
	}
	runEquivalenceTrace(t, FirstFit, 42, 3000)
	runEquivalenceTrace(t, BestFit, 1337, 3000)
}
