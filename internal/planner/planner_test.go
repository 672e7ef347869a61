package planner

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"cachedarrays/internal/memsim"
	"cachedarrays/internal/models"
	"cachedarrays/internal/units"
)

func TestPlanRespectsBudget(t *testing.T) {
	m := models.ResNet(50, 256)
	budget := int64(8 * units.GB)
	p := Build(m, budget, DefaultCostModel())
	if p.FastBytesPeak > budget {
		t.Fatalf("planned peak %s exceeds budget %s",
			units.Bytes(p.FastBytesPeak), units.Bytes(budget))
	}
	fast, offload, slow := p.Counts()
	if fast == 0 {
		t.Error("nothing planned into fast memory")
	}
	if fast+offload+slow != len(m.Tensors) {
		t.Error("placements do not cover all tensors")
	}
}

func TestPlanUsesOffloadUnderPressure(t *testing.T) {
	// A model whose footprint exceeds the budget should offload the
	// forward activations across their forward/backward gap.
	m := models.VGG(116, 320) // ~153 GB
	p := Build(m, 60*units.GB, DefaultCostModel())
	_, offload, _ := p.Counts()
	if offload == 0 {
		t.Fatal("no offload placements under memory pressure")
	}
	for id, pl := range p.Placement {
		if pl != Offload {
			continue
		}
		if p.OffloadAfter[id] >= p.RestoreBefore[id] {
			t.Fatalf("tensor %d: offload interval [%d,%d) inverted",
				id, p.OffloadAfter[id], p.RestoreBefore[id])
		}
	}
}

func TestGenerousBudgetKeepsEverythingFast(t *testing.T) {
	m := models.MLP(256, []int{128}, 10, 32)
	p := Build(m, 64*units.GB, DefaultCostModel())
	_, offload, slow := p.Counts()
	if offload != 0 {
		t.Errorf("offloads with an over-generous budget: %d", offload)
	}
	// Tiny tensors below the benefit threshold may stay slow; the bulk
	// must be fast.
	if slow > len(m.Tensors)/2 {
		t.Errorf("%d of %d tensors left slow despite ample budget", slow, len(m.Tensors))
	}
}

func TestZeroBudgetPlansEverythingSlow(t *testing.T) {
	m := models.MLP(256, []int{128}, 10, 32)
	p := Build(m, 0, DefaultCostModel())
	fast, offload, _ := p.Counts()
	if fast != 0 || offload != 0 {
		t.Fatalf("zero budget produced fast=%d offload=%d", fast, offload)
	}
	if p.FastBytesPeak != 0 {
		t.Fatalf("zero budget peak = %d", p.FastBytesPeak)
	}
}

func TestPlacementStrings(t *testing.T) {
	if SlowAlways.String() != "slow" || FastAlways.String() != "fast" || Offload.String() != "offload" {
		t.Error("placement strings wrong")
	}
	if Placement(9).String() == "" {
		t.Error("unknown placement renders empty")
	}
}

// TestPlanTieOrderPinned pins the plans of the three paper large models
// at the budget engine.RunPlanned derives from the default 180 GB DRAM
// (97%, planned_run.go). Build orders tensors by benefit density with
// sort.Slice; a tensor's bytes cancel out of that density, so ties are
// the rule, and which of several equally dense tensors claims capacity
// first is the standard library's unstable tie order — the AutoTM:plan
// column of results/baselines.csv is a function of it.
func TestPlanTieOrderPinned(t *testing.T) {
	h := sha256.New()
	for _, pm := range models.PaperLargeModels() {
		p := Build(pm.Build(), memsim.DefaultFastCapacity*97/100, DefaultCostModel())
		for id, pl := range p.Placement {
			binary.Write(h, binary.LittleEndian, [3]int64{int64(pl), int64(p.OffloadAfter[id]), int64(p.RestoreBefore[id])})
		}
		binary.Write(h, binary.LittleEndian, p.FastBytesPeak)
	}
	const want = "f9e7bb813aa4a14c88465bb59ff2889507305c783c2c68614561c7b052b7c03c"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("plans of the paper large models hash to %s, want %s.\n"+
			"Build breaks ties between equally dense tensors by the order sort.Slice "+
			"(the standard library's unstable pdqsort) leaves them in. If Build did not change, "+
			"the Go toolchain's sort did: expect the AutoTM:plan rows of results/baselines.csv "+
			"to move with it, and refresh them and this hash together.", got, want)
	}
}

func TestTighterBudgetsNeverRaisePeak(t *testing.T) {
	m := models.ResNet(50, 128)
	var prev int64 = 1 << 62
	for _, b := range []int64{32 * units.GB, 16 * units.GB, 4 * units.GB, units.GB} {
		p := Build(m, b, DefaultCostModel())
		if p.FastBytesPeak > b {
			t.Fatalf("budget %s: peak %s over budget", units.Bytes(b), units.Bytes(p.FastBytesPeak))
		}
		if p.FastBytesPeak > prev {
			t.Fatalf("peak grew as budget shrank")
		}
		prev = p.FastBytesPeak
	}
}
