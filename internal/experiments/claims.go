package experiments

import (
	"fmt"
	"math"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/models"
	"cachedarrays/internal/sched"
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

	s := opts.scheduler()
	opts.Sched = s // one scheduler for the matrix, the claims' own runs and DLRM
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

	// --- Fig. 3 and Fig. 7 ---
	// The claims' own runs go through the scheduler like every driver's
	// cells, so a filled cache serves them and they share results with
	// the Fig. 3 / Fig. 7 cells whose configs coincide. They are checks,
	// not figure cells: built on a bare config and never instrumented.
	{
		resnet := lazyModel(models.PaperLargeModels()[1], opts.Scale)
		dense := lazyModel(models.PaperSmallModels()[0], opts.Scale)
		hcfg := engine.Config{Iterations: opts.Iterations, SampleHeap: true}
		full := engine.Config{Iterations: opts.Iterations}
		none, small := full, full
		none.FastCapacity = engine.NVRAMOnly
		small.FastCapacity = 30 * units.GB / int64(opts.Scale)
		asyncCfg := small
		asyncCfg.AsyncMovement = true
		res, err := s.Run([]sched.Cell{
			{Name: "claims-fig3-2lm0", Build: resnet, Mode: "2LM:0", Cfg: hcfg},
			{Name: "claims-fig3-2lmM", Build: resnet, Mode: "2LM:M", Cfg: hcfg},
			{Name: "claims-fig7-full", Build: dense, Mode: "CA:LM", Cfg: full},
			{Name: "claims-fig7-nvram-only", Build: dense, Mode: "CA:LM", Cfg: none},
			{Name: "claims-fig7-small", Build: dense, Mode: "CA:LM", Cfg: small},
			{Name: "claims-fig7-small-async", Build: dense, Mode: "CA:LM", Cfg: asyncCfg},
		})
		if err != nil {
			return nil, err
		}
		h0, hm := res[0], res[1]
		add("fig3.heap",
			"without eager freeing the heap grows until the collector runs",
			fmt.Sprintf("peaks %s vs %s", units.Bytes(h0.PeakHeap), units.Bytes(hm.PeakHeap)),
			float64(h0.PeakHeap) >= 1.8*float64(hm.PeakHeap))

		fullR, noneR, smallR, asyncR := res[2], res[3], res[4], res[5]
		penalty := noneR.IterTime / fullR.IterTime
		add("fig7.nvram-only",
			"running with only NVRAM costs 3-4x",
			fmt.Sprintf("%.1fx", penalty), penalty >= 3 && penalty <= 7)
		recovered := (noneR.IterTime - smallR.IterTime) / (noneR.IterTime - fullR.IterTime)
		add("fig7.small-dram",
			"even a small amount of DRAM recovers most of that performance",
			fmt.Sprintf("%.0f%% recovered at a 1/6 budget", 100*recovered), recovered >= 0.4)
		rel := math.Abs(asyncR.IterTime-smallR.ProjectedAsyncTime) / smallR.ProjectedAsyncTime
		add("fig7.async-projection",
			"asynchronous movement would flatten the curve (projection, here implemented)",
			fmt.Sprintf("measured %.1fs vs projected %.1fs", asyncR.IterTime, smallR.ProjectedAsyncTime),
			rel <= 0.15)
	}

	// --- §VI DLRM extension ---
	{
		r, err := DLRM(opts)
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
