package engine

import (
	"math"
	"testing"

	"cachedarrays/internal/models"
	"cachedarrays/internal/policy"
	"cachedarrays/internal/units"
)

// TestAsyncMatchesFig7Projection validates the paper's Fig. 7 projection
// by actually building the projected system: with an asynchronous mover
// (separate movement timeline, proactive eviction on archive, optimally
// paced writeback streams), measured iteration time lands on the
// "perfectly asynchronous data movement" line the paper only extrapolates.
func TestAsyncMatchesFig7Projection(t *testing.T) {
	m := models.DenseNet(264, 504)
	for _, budget := range []int64{60 * units.GB, 10 * units.GB} {
		sync, err := RunCA(m, policy.CALM, Config{Iterations: 2, FastCapacity: budget})
		if err != nil {
			t.Fatal(err)
		}
		async, err := RunCA(m, policy.CALM, Config{
			Iterations: 2, FastCapacity: budget,
			AsyncMovement: true, CheckInvariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if async.IterTime >= sync.IterTime {
			t.Errorf("budget %s: async (%.1fs) not faster than sync (%.1fs)",
				units.Bytes(budget), async.IterTime, sync.IterTime)
		}
		// Within 15% of the sync run's projection.
		if rel := math.Abs(async.IterTime-sync.ProjectedAsyncTime) / sync.ProjectedAsyncTime; rel > 0.15 {
			t.Errorf("budget %s: async measured %.1fs vs projection %.1fs (%.0f%% off)",
				units.Bytes(budget), async.IterTime, sync.ProjectedAsyncTime, 100*rel)
		}
	}
}

// TestAsyncFlatAcrossBudgets asserts the projected property directly:
// DenseNet's async iteration time varies only slightly with the DRAM
// budget (paper: "this projected performance varies only slightly as the
// DRAM budget decreases").
func TestAsyncFlatAcrossBudgets(t *testing.T) {
	m := models.DenseNet(264, 504)
	var times []float64
	for _, budget := range []int64{120 * units.GB, 60 * units.GB, 10 * units.GB} {
		r, err := RunCA(m, policy.CALM, Config{
			Iterations: 2, FastCapacity: budget, AsyncMovement: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, r.IterTime)
	}
	for i := 1; i < len(times); i++ {
		if rel := math.Abs(times[i]-times[0]) / times[0]; rel > 0.1 {
			t.Errorf("async time moved %.0f%% between budgets: %v", 100*rel, times)
		}
	}
}

// TestAsyncVGGStillDegrades asserts the paper's counterpoint: VGG's
// read-bound kernels keep it slower at low DRAM even with perfect
// asynchronous movement.
func TestAsyncVGGStillDegrades(t *testing.T) {
	m := models.VGG(116, 320)
	full, err := RunCA(m, policy.CALM, Config{Iterations: 2, FastCapacity: 180 * units.GB, AsyncMovement: true})
	if err != nil {
		t.Fatal(err)
	}
	low, err := RunCA(m, policy.CALM, Config{Iterations: 2, FastCapacity: 10 * units.GB, AsyncMovement: true})
	if err != nil {
		t.Fatal(err)
	}
	if low.IterTime < 1.05*full.IterTime {
		t.Errorf("VGG async at 10 GB (%.1fs) should remain slower than at 180 GB (%.1fs)",
			low.IterTime, full.IterTime)
	}
}

// TestAsyncDataDependenciesRespected verifies that a kernel whose argument
// is being moved waits for that move (the clock reflects the dependency)
// while unrelated background writebacks do not serialize with it.
func TestAsyncDataDependenciesRespected(t *testing.T) {
	m := models.MLP(4096, []int{4096, 4096}, 1000, 512)
	r, err := RunCA(m, policy.CALMP, Config{
		Iterations: 2, FastCapacity: 64 * units.MB, SlowCapacity: 8 * units.GB,
		AsyncMovement: true, HintLookahead: 2, CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.IterTime <= 0 || r.MoveTime < 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	// The virtual clock can never run ahead of physics: iteration time
	// must cover at least the compute.
	if r.IterTime < r.ComputeTime-1e-9 {
		t.Fatalf("iteration %.3fs shorter than kernel time %.3fs", r.IterTime, r.ComputeTime)
	}
}

// TestWriteThreadCap checks the §V-d scheduling fix the async mover uses:
// capping write streams restores peak NVRAM write bandwidth.
func TestWriteThreadCap(t *testing.T) {
	p := NewPlatform(Config{AsyncMovement: true})
	if p.Copier.WriteThreadCap != p.Slow.Profile.WritePeakThreads {
		t.Fatalf("async copier cap = %d, want %d",
			p.Copier.WriteThreadCap, p.Slow.Profile.WritePeakThreads)
	}
	capped := p.Copier.CopyTime(p.Slow, p.Fast, units.GB)
	uncappedP := NewPlatform(Config{})
	uncapped := uncappedP.Copier.CopyTime(p.Slow, p.Fast, units.GB)
	if capped >= uncapped {
		t.Errorf("capped copy (%.4fs) not faster than uncapped (%.4fs)", capped, uncapped)
	}
}
