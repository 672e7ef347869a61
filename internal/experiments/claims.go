package experiments

import (
	"fmt"
	"math"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/models"
	"cachedarrays/internal/policy"
	"cachedarrays/internal/units"
)

// Claim is one qualitative statement from the paper's evaluation, checked
// against this reproduction's measurements.
type Claim struct {
	ID        string // e.g. "fig2.speedup"
	Statement string // the paper's claim
	Measured  string // what we measured
	Pass      bool
}

// CheckClaims runs the full evaluation and scores every qualitative claim.
// This is the machine-checkable form of EXPERIMENTS.md — `cmd/cacheck`
// prints it, and CI can gate on it.
func CheckClaims(opts Options) ([]Claim, error) {
	opts = opts.withDefaults()
	var claims []Claim
	add := func(id, statement, measured string, pass bool) {
		claims = append(claims, Claim{ID: id, Statement: statement, Measured: measured, Pass: pass})
	}

	mat, err := RunMatrix(opts)
	if err != nil {
		return nil, err
	}

	// --- Fig. 2 ---
	for _, model := range mat.Models {
		base := mat.Get(model, "2LM:0").IterTime
		best := math.Inf(1)
		for _, mode := range []string{"CA:0", "CA:L", "CA:LM", "CA:LMP"} {
			if t := mat.Get(model, mode).IterTime; t < best {
				best = t
			}
		}
		speedup := base / best
		add("fig2.speedup/"+model,
			"CachedArrays outperforms 2LM by 1.4x-2.03x",
			fmt.Sprintf("%.2fx", speedup),
			speedup >= 1.2 && speedup <= 2.75)
	}
	for _, model := range mat.Models {
		lm0 := mat.Get(model, "2LM:0").IterTime
		lmM := mat.Get(model, "2LM:M").IterTime
		add("fig2.memopt-2lm/"+model,
			"memory freeing optimizations improve 2LM as well",
			fmt.Sprintf("%.1fs -> %.1fs", lm0, lmM), lmM < lm0)
	}
	for _, model := range mat.Models {
		c0 := mat.Get(model, "CA:0").IterTime
		cl := mat.Get(model, "CA:L").IterTime
		clm := mat.Get(model, "CA:LM").IterTime
		add("fig2.ordering/"+model,
			"CA:L faster than CA:0; CA:LM faster than CA:L",
			fmt.Sprintf("%.1f > %.1f > %.1f", c0, cl, clm), cl < c0 && clm < cl)
	}
	for _, model := range []string{"DenseNet 264", "ResNet 200"} {
		lm := mat.Get(model, "CA:LM").IterTime
		lmp := mat.Get(model, "CA:LMP").IterTime
		add("fig2.prefetch-hurts/"+model,
			"prefetching hurts DenseNet and ResNet",
			fmt.Sprintf("LM %.1fs, LMP %.1fs", lm, lmp), lmp > lm)
	}
	{
		lm := mat.Get("VGG 416", "CA:LM").IterTime
		lmp := mat.Get("VGG 416", "CA:LMP").IterTime
		add("fig2.prefetch-helps/VGG 416",
			"prefetching improves VGG",
			fmt.Sprintf("LM %.1fs, LMP %.1fs", lm, lmp), lmp < lm)
	}
	{
		vgg0 := mat.Get("VGG 416", "CA:0").IterTime
		vggBase := mat.Get("VGG 416", "2LM:0").IterTime
		add("fig2.ca0-vgg",
			"for VGG, CA:0 is even slower than unoptimized 2LM",
			fmt.Sprintf("CA:0 %.1fs vs 2LM:0 %.1fs", vgg0, vggBase), vgg0 > vggBase)
	}

	// --- Fig. 4 ---
	{
		c0 := mat.Get("ResNet 200", "2LM:0").Cache
		cm := mat.Get("ResNet 200", "2LM:M").Cache
		add("fig4.hitrate",
			"the annotated 2LM run has an ~18% higher hit rate",
			fmt.Sprintf("%.1f%% -> %.1f%%", 100*c0.HitRate(), 100*cm.HitRate()),
			cm.HitRate() >= c0.HitRate()+0.10)
		add("fig4.dirtymiss",
			"the annotated 2LM run has a ~50% lower dirty-miss rate",
			fmt.Sprintf("%.1f%% -> %.1f%%", 100*c0.DirtyMissRate(), 100*cm.DirtyMissRate()),
			cm.DirtyMissRate() <= 0.75*c0.DirtyMissRate())
	}

	// --- Fig. 5 ---
	{
		l := mat.Get("DenseNet 264", "CA:L").Slow
		lm := mat.Get("DenseNet 264", "CA:LM").Slow
		add("fig5.nvram-writes",
			"memory optimizations drop DenseNet NVRAM writes ~3x (1100->350 GB)",
			fmt.Sprintf("%s -> %s", units.Bytes(l.WriteBytes), units.Bytes(lm.WriteBytes)),
			float64(l.WriteBytes) >= 2*float64(lm.WriteBytes))
		add("fig5.read-write-balance",
			"with memory optimizations, NVRAM reads exceed NVRAM writes",
			fmt.Sprintf("R %s vs W %s", units.Bytes(lm.ReadBytes), units.Bytes(lm.WriteBytes)),
			lm.ReadBytes > lm.WriteBytes)
		vlm := mat.Get("VGG 416", "CA:LM").Slow
		vlmp := mat.Get("VGG 416", "CA:LMP").Slow
		add("fig5.vgg-prefetch-reads",
			"prefetching decreases VGG NVRAM reads by ~5.4x",
			fmt.Sprintf("%s -> %s", units.Bytes(vlm.ReadBytes), units.Bytes(vlmp.ReadBytes)),
			float64(vlm.ReadBytes) >= 3*float64(vlmp.ReadBytes))
	}

	// --- Fig. 6 ---
	{
		caR := mat.Get("ResNet 200", "CA:0").FastBusUtil
		lmR := mat.Get("ResNet 200", "2LM:0").FastBusUtil
		caV := mat.Get("VGG 416", "CA:0").FastBusUtil
		lmV := mat.Get("VGG 416", "2LM:0").FastBusUtil
		add("fig6.resnet",
			"CA:0 achieves higher DRAM utilization than 2LM:0 for ResNet",
			fmt.Sprintf("%.1f%% vs %.1f%%", 100*caR, 100*lmR), caR > lmR)
		add("fig6.vgg",
			"the situation is reversed for VGG",
			fmt.Sprintf("%.1f%% vs %.1f%%", 100*caV, 100*lmV), caV < lmV)
	}

	// --- Fig. 3 ---
	{
		resnet := models.PaperLargeModels()[1].BuildScaled(opts.Scale)
		hcfg := engine.Config{Iterations: opts.Iterations, SampleHeap: true}
		h0, err := engine.Run2LM(resnet, false, hcfg)
		if err != nil {
			return nil, err
		}
		hm, err := engine.Run2LM(resnet, true, hcfg)
		if err != nil {
			return nil, err
		}
		add("fig3.heap",
			"without eager freeing the heap grows until the collector runs",
			fmt.Sprintf("peaks %s vs %s", units.Bytes(h0.PeakHeap), units.Bytes(hm.PeakHeap)),
			float64(h0.PeakHeap) >= 1.8*float64(hm.PeakHeap))
	}

	// --- Fig. 7 ---
	{
		dense := models.PaperSmallModels()[0].BuildScaled(opts.Scale)
		full, err := engine.RunCA(dense, policy.CALM, engine.Config{Iterations: opts.Iterations})
		if err != nil {
			return nil, err
		}
		none, err := engine.RunCA(dense, policy.CALM,
			engine.Config{Iterations: opts.Iterations, FastCapacity: engine.NVRAMOnly})
		if err != nil {
			return nil, err
		}
		small, err := engine.RunCA(dense, policy.CALM,
			engine.Config{Iterations: opts.Iterations, FastCapacity: 30 * units.GB / int64(opts.Scale)})
		if err != nil {
			return nil, err
		}
		penalty := none.IterTime / full.IterTime
		add("fig7.nvram-only",
			"running with only NVRAM costs 3-4x",
			fmt.Sprintf("%.1fx", penalty), penalty >= 3 && penalty <= 7)
		recovered := (none.IterTime - small.IterTime) / (none.IterTime - full.IterTime)
		add("fig7.small-dram",
			"even a small amount of DRAM recovers most of that performance",
			fmt.Sprintf("%.0f%% recovered at a 1/6 budget", 100*recovered), recovered >= 0.4)
		async, err := engine.RunCA(dense, policy.CALM,
			engine.Config{Iterations: opts.Iterations, FastCapacity: 30 * units.GB / int64(opts.Scale),
				AsyncMovement: true})
		if err != nil {
			return nil, err
		}
		rel := math.Abs(async.IterTime-small.ProjectedAsyncTime) / small.ProjectedAsyncTime
		add("fig7.async-projection",
			"asynchronous movement would flatten the curve (projection, here implemented)",
			fmt.Sprintf("measured %.1fs vs projected %.1fs", async.IterTime, small.ProjectedAsyncTime),
			rel <= 0.15)
	}

	// --- §VI DLRM extension ---
	{
		r, err := RunDLRM(models.DefaultDLRMConfig())
		if err != nil {
			return nil, err
		}
		last := len(r.StaticHit) - 1
		add("vi.dlrm",
			"a static placement cannot follow shifting locality; the dynamic policy can",
			fmt.Sprintf("post-drift hit rates: static %.0f%%, dynamic %.0f%%",
				100*r.StaticHit[last], 100*r.DynamicHit[last]),
			r.DynamicHit[last] >= 2*r.StaticHit[last])
	}

	return claims, nil
}

// ClaimsTable renders the claim list.
func ClaimsTable(claims []Claim) *Table {
	t := &Table{
		Title:  "reproduction check — paper claims vs this build",
		Header: []string{"claim", "status", "measured", "paper statement"},
	}
	pass := 0
	for _, c := range claims {
		status := "PASS"
		if c.Pass {
			pass++
		} else {
			status = "FAIL"
		}
		t.Rows = append(t.Rows, []string{c.ID, status, c.Measured, c.Statement})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d/%d claims reproduced", pass, len(claims)))
	return t
}
