package models

import (
	"testing"

	"cachedarrays/internal/units"
)

func TestKindAndPhaseStrings(t *testing.T) {
	if Weight.String() != "weight" || Activation.String() != "activation" ||
		WeightGrad.String() != "weight-grad" || ActivationGrad.String() != "activation-grad" ||
		Input.String() != "input" {
		t.Error("kind strings wrong")
	}
	if TensorKind(42).String() != "TensorKind(42)" {
		t.Error("unknown kind string")
	}
	if Forward.String() != "forward" || Backward.String() != "backward" {
		t.Error("phase strings wrong")
	}
}

func TestMLPStructure(t *testing.T) {
	m := MLP(784, []int{256, 128}, 10, 32)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3 forward fc kernels + loss + 3 backward kernels.
	if len(m.Kernels) != 7 {
		t.Fatalf("kernel count = %d, want 7", len(m.Kernels))
	}
	// 3 weights, 3 weight grads.
	var w, wg int
	for i := range m.Tensors {
		switch m.Tensors[i].Kind {
		case Weight:
			w++
		case WeightGrad:
			wg++
		}
	}
	if w != 3 || wg != 3 {
		t.Fatalf("weights=%d weight-grads=%d", w, wg)
	}
	// First fc weight: 784*256+256 elements.
	want := int64(784*256+256) * 4
	if got := m.Tensors[1].Bytes; got != want {
		t.Fatalf("fc1 weight bytes = %d, want %d", got, want)
	}
}

func TestBackwardMirrorsForward(t *testing.T) {
	m := VGG(16, 8)
	fw, bw := 0, 0
	for i := range m.Kernels {
		if m.Kernels[i].Phase == Forward {
			fw++
		} else {
			bw++
		}
	}
	// Every forward op gets one backward kernel, plus the loss kernel.
	if bw != fw+1 {
		t.Fatalf("forward=%d backward=%d, want backward = forward+1", fw, bw)
	}
}

func TestBackwardReadsSavedActivations(t *testing.T) {
	// The FILO activation pattern of §III-E: an activation produced by
	// forward kernel i must be read again by the matching backward
	// kernel — that is what forces the paper-scale footprints.
	m := VGG(16, 8)
	last := m.LastUse()
	first := m.FirstUse()
	nForward := 0
	for i := range m.Kernels {
		if m.Kernels[i].Phase == Forward {
			nForward++
		}
	}
	checked := 0
	for id := range m.Tensors {
		tt := &m.Tensors[id]
		if tt.Kind != Activation {
			continue
		}
		if first[id] >= nForward {
			t.Fatalf("activation %s first used in backward", tt.Name)
		}
		if last[id] < nForward {
			t.Fatalf("activation %s never read on the backward pass", tt.Name)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no activations checked")
	}
}

func TestResNetGradientAccumulation(t *testing.T) {
	// A ResNet block input feeds both conv1 and the shortcut, so its
	// gradient tensor must be written by more than one backward kernel.
	m := ResNet(50, 4)
	writers := map[int]int{}
	for ki := range m.Kernels {
		if m.Kernels[ki].Phase != Backward {
			continue
		}
		for _, w := range m.Kernels[ki].Writes {
			if m.Tensors[w].Kind == ActivationGrad {
				writers[w]++
			}
		}
	}
	multi := 0
	for _, n := range writers {
		if n > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no gradient accumulation found in ResNet backward pass")
	}
}

func TestAllPaperModelsValidate(t *testing.T) {
	for _, pm := range append(PaperLargeModels(), PaperSmallModels()...) {
		m := pm.Build()
		if err := m.Validate(); err != nil {
			t.Errorf("%s (batch %d): %v", pm.Name, pm.BatchSize, err)
		}
	}
}

// TestBuildScaled pins the quick-look scaling every driver shares: the
// batch is divided by scale and clamped at 1, the network is unchanged,
// and a scale of 0 or 1 is the paper's own configuration.
func TestBuildScaled(t *testing.T) {
	for _, pm := range append(PaperLargeModels(), PaperSmallModels()...) {
		for _, tc := range []struct{ scale, batch int }{
			{0, pm.BatchSize}, {1, pm.BatchSize}, {8, pm.BatchSize / 8}, {1 << 20, 1},
		} {
			m := pm.BuildScaled(tc.scale)
			if m.BatchSize != tc.batch || m.Name != pm.Build().Name {
				t.Errorf("%s scale %d: got %s batch %d, want %s batch %d",
					pm.Name, tc.scale, m.Name, m.BatchSize, pm.Build().Name, tc.batch)
			}
		}
	}
}

func TestTableIIIFootprintBands(t *testing.T) {
	// Reproduction of Table III's constraints: every large network's
	// footprint must greatly exceed the 180 GB DRAM budget (paper: ~520
	// to 529 GB; our graph-derived figures land 420-470 GB), and every
	// small network must fit within DRAM (paper: 170-180 GB; ours
	// 130-155 GB).
	dram := int64(180 * units.GB)
	for _, pm := range PaperLargeModels() {
		peak := pm.Build().PeakFootprint()
		if peak < 2*dram {
			t.Errorf("%s large footprint %s does not greatly exceed DRAM %s",
				pm.Name, units.Bytes(peak), units.Bytes(dram))
		}
		if peak > 600*units.GB {
			t.Errorf("%s large footprint %s implausibly high vs paper's ~526 GB",
				pm.Name, units.Bytes(peak))
		}
	}
	for _, pm := range PaperSmallModels() {
		peak := pm.Build().PeakFootprint()
		if peak >= dram {
			t.Errorf("%s small footprint %s does not fit in DRAM", pm.Name, units.Bytes(peak))
		}
		if peak < 100*units.GB {
			t.Errorf("%s small footprint %s too small vs paper's 170-180 GB",
				pm.Name, units.Bytes(peak))
		}
	}
}

// TestParameterCountsMatchPublished pins the layer graphs every number
// derives from: WeightBytes holds fp32 weights plus their fp32 gradients,
// 8 bytes per parameter. VGG-16 and VGG-19 match the published counts
// exactly. ResNet-50 is the published 25,557,032 minus 26,560: the model
// fuses one conv bias per channel where BatchNorm has two parameters
// (scale and shift), one fewer per channel over its 26,560 BN channels.
func TestParameterCountsMatchPublished(t *testing.T) {
	for _, tc := range []struct {
		m    *Model
		want int64
	}{
		{VGG(16, 1), 138_357_544},
		{VGG(19, 1), 143_667_240},
		{ResNet(50, 1), 25_557_032 - 26_560},
	} {
		if got := tc.m.WeightBytes() / 8; got != tc.want {
			t.Errorf("%s: %d parameters, want %d", tc.m.Name, got, tc.want)
		}
	}
}

func TestFootprintScalesWithBatch(t *testing.T) {
	small := ResNet(50, 16).PeakFootprint()
	big := ResNet(50, 32).PeakFootprint()
	// Activations dominate: doubling batch should nearly double peak.
	if float64(big) < 1.8*float64(small) {
		t.Errorf("peak did not scale with batch: %d -> %d", small, big)
	}
}

func TestPeakFootprintBelowTotalAboveWeights(t *testing.T) {
	m := DenseNet(121, 16)
	peak := m.PeakFootprint()
	if peak <= m.WeightBytes() {
		t.Fatal("peak below weight bytes")
	}
	if peak > m.TotalTensorBytes() {
		t.Fatal("peak above no-reuse total")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := MLP(10, []int{10}, 2, 4)
	bad := *m
	bad.Kernels = append([]Kernel{}, m.Kernels...)
	bad.Kernels[0].Writes = []int{9999}
	if bad.Validate() == nil {
		t.Error("out-of-range tensor reference accepted")
	}

	bad2 := *m
	bad2.Tensors = append([]Tensor{}, m.Tensors...)
	bad2.Tensors[0].Bytes = 0
	if bad2.Validate() == nil {
		t.Error("zero-size tensor accepted")
	}

	bad3 := *m
	bad3.Kernels = append([]Kernel{}, m.Kernels...)
	// Move a forward kernel after the backward pass begins.
	bad3.Kernels[len(bad3.Kernels)-1].Phase = Forward
	if bad3.Validate() == nil {
		t.Error("forward-after-backward accepted")
	}
}

func TestUnsupportedDepthsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { ResNet(33, 4) },
		func() { DenseNet(100, 4) },
		func() { VGG(5, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("unsupported depth did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestDLRMWorkloadShape(t *testing.T) {
	cfg := DefaultDLRMConfig()
	w := NewDLRMWorkload(cfg)
	if len(w.Steps) != cfg.Steps {
		t.Fatalf("steps = %d", len(w.Steps))
	}
	for _, step := range w.Steps {
		if len(step) != cfg.NumTables {
			t.Fatalf("tables per step = %d", len(step))
		}
		for _, rows := range step {
			if len(rows) != cfg.LookupsPerStep {
				t.Fatalf("lookups = %d", len(rows))
			}
			for _, r := range rows {
				if r < 0 || r >= cfg.RowsPerTable {
					t.Fatalf("row %d out of range", r)
				}
			}
		}
	}
	if w.EmbeddingBytes() != int64(w.TotalRows())*w.RowBytes {
		t.Fatal("embedding bytes inconsistent")
	}
	if w.MLPBytes <= 0 || w.MLPFLOPsPerStep <= 0 {
		t.Fatal("dense side empty")
	}
}

func TestDLRMHotSetShifts(t *testing.T) {
	cfg := DefaultDLRMConfig()
	cfg.ZipfSkew = 1.0 // all traffic to the hot set
	w := NewDLRMWorkload(cfg)
	seen := func(step int) map[int]bool {
		s := map[int]bool{}
		for _, r := range w.Steps[step][0] {
			s[r] = true
		}
		return s
	}
	early, late := seen(0), seen(cfg.ShiftEvery)
	overlap := 0
	for r := range late {
		if early[r] {
			overlap++
		}
	}
	if overlap == len(late) {
		t.Fatal("hot set did not shift")
	}
}

func TestDLRMDeterministicBySeed(t *testing.T) {
	a := NewDLRMWorkload(DefaultDLRMConfig())
	b := NewDLRMWorkload(DefaultDLRMConfig())
	for i := range a.Steps {
		for tbl := range a.Steps[i] {
			for j := range a.Steps[i][tbl] {
				if a.Steps[i][tbl][j] != b.Steps[i][tbl][j] {
					t.Fatal("same seed produced different traces")
				}
			}
		}
	}
}
