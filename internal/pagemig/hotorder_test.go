package pagemig

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkHotOrder sorts in with slices.SortFunc under the direction's
// oracle, then reads a hotOrder over the same input — hotness negated for
// colder first, as Epoch stores fastCold — at indices 0, stride,
// 2·stride, … below k and at k-1, requiring after each read that the
// whole prefix read so far equals the oracle's.
func checkHotOrder(t testing.TB, in []cand, colder bool, k, stride int) {
	t.Helper()
	want := slices.Clone(in)
	c := slices.Clone(in)
	if colder {
		slices.SortFunc(want, colderFirst)
		for i := range c {
			c[i].hot = -c[i].hot
		}
	} else {
		slices.SortFunc(want, hotterFirst)
	}
	var o hotOrder
	o.reset(c)
	read := func(i int) {
		got := o.at(i)
		if colder {
			got.hot = -got.hot
		}
		if got != want[i] {
			t.Fatalf("n=%d colder=%v: at(%d) = %+v, slices.SortFunc has %+v", len(in), colder, i, got, want[i])
		}
		for j, g := range o.c[:i+1] {
			if colder {
				g.hot = -g.hot
			}
			if g != want[j] {
				t.Fatalf("n=%d colder=%v: after reading index %d, position %d holds %+v, slices.SortFunc has %+v",
					len(in), colder, i, j, g, want[j])
			}
		}
	}
	for i := 0; i < k; i += stride {
		read(i)
	}
	if k > 0 {
		read(k - 1)
	}
}

// tiedCands returns n candidates whose hotness is one of alpha values
// (0, 0.5, 1, …), so ties are the norm. runs lays them out as Epoch sees
// tensors — page-ordered groups of equal hotness — instead of uniformly.
func tiedCands(rng *rand.Rand, n, alpha int, runs bool) []cand {
	c := make([]cand, n)
	for i := 0; i < n; {
		h, l := float64(rng.Intn(alpha))/2, 1
		if runs {
			l = 1 + rng.Intn(max(n/8, 1))
		}
		for ; l > 0 && i < n; l-- {
			c[i] = cand{int64(i), h}
			i++
		}
	}
	return c
}

// TestHotOrderMatchesSlicesSortFunc: every prefix a reader takes from a
// hotOrder, sequentially or in jumps, is the prefix slices.SortFunc
// produces on the same input, across the length thresholds of pdqsort
// (insertion sort at 12, ninther and shifting at 50) and at the ≈200 k
// candidates of a paper-scale epoch.
func TestHotOrderMatchesSlicesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{0, 1, 12, 13, 49, 50, 51, 1000, 200000} {
		for alpha := 3; alpha <= 5; alpha++ {
			for _, runs := range []bool{false, true} {
				in := tiedCands(rng, n, alpha, runs)
				for _, colder := range []bool{false, true} {
					t.Run(fmt.Sprintf("n%d/alpha%d/runs=%v/colder=%v", n, alpha, runs, colder), func(t *testing.T) {
						// A full sequential read where that is cheap, the
						// first 7 000 in steps of 7, and everything in
						// jumps of 4 099.
						checkHotOrder(t, in, colder, min(n, 1000), 1)
						checkHotOrder(t, in, colder, min(n, 7000), 7)
						checkHotOrder(t, in, colder, n, 4099)
					})
				}
			}
		}
	}
}

// FuzzHotOrderPrefix decodes bytes into a candidate list and a read:
// bytes 0–1 give the read length k (mod n+1), byte 2 the direction (bit
// 0) and the stride (1 + the rest mod 16), and every further byte one run
// of equally hot candidates — hotness (b&7)/2, length 1 + b>>3 — up to
// 2 048 candidates.
func FuzzHotOrderPrefix(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0, 0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77})
	f.Add([]byte{100, 0, 3, 0xf9, 0xfa, 0xf9, 0xfa, 0xf9, 0xfa, 0xf9, 0xfa})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		var in []cand
		for _, b := range data[3:] {
			for l := 1 + int(b>>3); l > 0 && len(in) < 2048; l-- {
				in = append(in, cand{int64(len(in)), float64(b&7) / 2})
			}
		}
		k := (int(data[0]) | int(data[1])<<8) % (len(in) + 1)
		checkHotOrder(t, in, data[2]&1 == 1, k, 1+int(data[2]>>1)%16)
	})
}
