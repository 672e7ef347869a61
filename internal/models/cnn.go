package models

import "fmt"

// The paper's benchmark networks (Table III):
//
//	Large: DenseNet 264 @ 1536, ResNet 200 @ 2048, VGG 416 @ 256
//	Small: DenseNet 264 @ 504,  ResNet 200 @ 640,  VGG 116 @ 320
//
// All take 224x224x3 ImageNet-shaped inputs and produce 1000-way logits.

const (
	imageSize  = 224
	imageChans = 3
	numClasses = 1000
)

// VGG builds a VGG-style network with `depth` weight layers (depth-3 convs
// in five blocks plus three fully connected layers). VGG 416 is the paper's
// reimplementation of vDNN's extended VGG-16: same block structure and
// channel widths, with each block's conv count scaled up proportionally.
func VGG(depth, batch int) *Model {
	if depth < 11 {
		panic(fmt.Sprintf("models: VGG depth %d too small", depth))
	}
	convs := depth - 3
	base := [5]int{2, 2, 3, 3, 3} // VGG-16's 13 convs
	widths := [5]int{64, 128, 256, 512, 512}
	var counts [5]int
	total := 0
	for i := range counts {
		counts[i] = convs * base[i] / 13
		if counts[i] < 1 {
			counts[i] = 1
		}
		total += counts[i]
	}
	// Distribute the rounding remainder over the deeper (cheaper)
	// blocks; shrink from the shallow end if rounding overshot.
	for i := 0; total < convs; i = (i + 1) % 5 {
		counts[4-i]++
		total++
	}
	for i := 0; total > convs; i = (i + 1) % 5 {
		if counts[i] > 1 {
			counts[i]--
			total--
		}
	}

	g := newGraph(fmt.Sprintf("vgg%d", depth), batch)
	x := g.input(imageChans, imageSize, imageSize)
	for b := 0; b < 5; b++ {
		for l := 0; l < counts[b]; l++ {
			x = g.conv(fmt.Sprintf("b%d.conv%d", b+1, l+1), x, widths[b], 3, 1, 1)
		}
		x = g.pool(fmt.Sprintf("b%d.pool", b+1), x, 2, 2)
	}
	x = g.fc("fc1", x, 4096)
	x = g.fc("fc2", x, 4096)
	x = g.fc("fc3", x, numClasses)
	return g.finish(x)
}

// ResNet builds a pre-activation bottleneck ResNet. Supported depths
// follow depth = 9*sum(stageBlocks) + 2; ResNet 200 uses stages
// [3, 24, 36, 3].
func ResNet(depth, batch int) *Model {
	var stages [4]int
	switch depth {
	case 50:
		stages = [4]int{3, 4, 6, 3}
	case 101:
		stages = [4]int{3, 4, 23, 3}
	case 152:
		stages = [4]int{3, 8, 36, 3}
	case 200:
		stages = [4]int{3, 24, 36, 3}
	default:
		panic(fmt.Sprintf("models: unsupported ResNet depth %d", depth))
	}
	widths := [4]int{256, 512, 1024, 2048}

	g := newGraph(fmt.Sprintf("resnet%d", depth), batch)
	x := g.input(imageChans, imageSize, imageSize)
	x = g.conv("stem.conv", x, 64, 7, 2, 3)
	x = g.pool("stem.pool", x, 3, 2)
	// Spatial note: 224 -> 112 (stem) -> 55 with a 3x3/2 pool and no
	// padding; real implementations pad to reach 56, the difference is
	// negligible for byte accounting.
	for s := 0; s < 4; s++ {
		for b := 0; b < stages[s]; b++ {
			name := fmt.Sprintf("s%d.b%d", s+1, b+1)
			stride := 1
			if s > 0 && b == 0 {
				stride = 2
			}
			mid := widths[s] / 4
			shortcut := x
			if b == 0 {
				// Projection shortcut changes width (and stride).
				shortcut = g.conv(name+".proj", x, widths[s], 1, stride, 0)
			}
			y := g.conv(name+".conv1", x, mid, 1, stride, 0)
			y = g.conv(name+".conv2", y, mid, 3, 1, 1)
			y = g.conv(name+".conv3", y, widths[s], 1, 1, 0)
			x = g.add(name+".add", y, shortcut)
		}
	}
	x = g.globalPool("head.pool", x)
	x = g.fc("head.fc", x, numClasses)
	return g.finish(x)
}

// DenseNet builds a DenseNet-BC with growth rate 32 and compression 0.5.
// DenseNet 264 uses blocks [6, 12, 64, 48]. Concatenation is modelled as
// the explicit-copy concat of naive framework implementations — the
// quadratic activation memory that makes DenseNet the paper's most
// memory-hungry benchmark.
func DenseNet(depth, batch int) *Model {
	var blocks [4]int
	switch depth {
	case 121:
		blocks = [4]int{6, 12, 24, 16}
	case 169:
		blocks = [4]int{6, 12, 32, 32}
	case 201:
		blocks = [4]int{6, 12, 48, 32}
	case 264:
		blocks = [4]int{6, 12, 64, 48}
	default:
		panic(fmt.Sprintf("models: unsupported DenseNet depth %d", depth))
	}
	const growth = 32

	g := newGraph(fmt.Sprintf("densenet%d", depth), batch)
	x := g.input(imageChans, imageSize, imageSize)
	x = g.conv("stem.conv", x, 2*growth, 7, 2, 3)
	x = g.pool("stem.pool", x, 3, 2)
	for bi, layers := range blocks {
		for l := 0; l < layers; l++ {
			// Pre-activation BN-ReLU-conv1x1-BN-ReLU-conv3x3. The
			// first BN/ReLU pair runs on the full concatenated
			// input and cannot fuse with the preceding concat, so
			// both intermediates materialize at full width.
			name := fmt.Sprintf("d%d.l%d", bi+1, l+1)
			y := g.eltwise(name+".bn1", x)
			y = g.eltwise(name+".relu1", y)
			y = g.conv(name+".conv1", y, 4*growth, 1, 1, 0) // bottleneck
			y = g.conv(name+".conv2", y, growth, 3, 1, 1)
			x = g.concat(name+".cat", x, y)
		}
		if bi < 3 {
			name := fmt.Sprintf("t%d", bi+1)
			x = g.conv(name+".conv", x, x.c/2, 1, 1, 0) // compression
			x = g.pool(name+".pool", x, 2, 2)
		}
	}
	x = g.globalPool("head.pool", x)
	x = g.fc("head.fc", x, numClasses)
	return g.finish(x)
}

// PaperModel names one of the Table III configurations.
type PaperModel struct {
	Name      string
	Large     bool
	BatchSize int
	Build     func() *Model
}

// BuildScaled builds the configuration with its batch size divided by
// scale (minimum 1) — the quick-look scaling the experiment and
// tournament drivers share. A scale of 0 or 1 is the paper's own Build.
func (pm PaperModel) BuildScaled(scale int) *Model {
	if scale <= 1 {
		return pm.Build()
	}
	batch := max(pm.BatchSize/scale, 1)
	switch pm.Name {
	case "DenseNet 264":
		return DenseNet(264, batch)
	case "ResNet 200":
		return ResNet(200, batch)
	case "VGG 416":
		return VGG(416, batch)
	case "VGG 116":
		return VGG(116, batch)
	default:
		panic(fmt.Sprintf("models: unknown paper model %q", pm.Name))
	}
}

// PaperLargeModels returns the three large-network configurations of
// Table III (footprints far exceeding the 180 GB DRAM budget).
func PaperLargeModels() []PaperModel {
	return []PaperModel{
		{Name: "DenseNet 264", Large: true, BatchSize: 1536, Build: func() *Model { return DenseNet(264, 1536) }},
		{Name: "ResNet 200", Large: true, BatchSize: 2048, Build: func() *Model { return ResNet(200, 2048) }},
		{Name: "VGG 416", Large: true, BatchSize: 256, Build: func() *Model { return VGG(416, 256) }},
	}
}

// PaperSmallModels returns the small-network configurations (footprints of
// 170–180 GB, fitting within one socket's DRAM).
func PaperSmallModels() []PaperModel {
	return []PaperModel{
		{Name: "DenseNet 264", BatchSize: 504, Build: func() *Model { return DenseNet(264, 504) }},
		{Name: "ResNet 200", BatchSize: 640, Build: func() *Model { return ResNet(200, 640) }},
		{Name: "VGG 116", BatchSize: 320, Build: func() *Model { return VGG(116, 320) }},
	}
}
