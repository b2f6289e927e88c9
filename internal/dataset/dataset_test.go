package dataset

import (
	"testing"

	"remapd/internal/nn"
	"remapd/internal/tensor"
)

func TestCIFAR10LikeShapeAndLabels(t *testing.T) {
	d := CIFAR10Like(100, 40, 16, 1)
	if d.Classes != 10 || d.C != 3 || d.H != 16 || d.W != 16 {
		t.Fatalf("bad geometry: %+v", d)
	}
	if d.TrainLen() != 100 || d.TestLen() != 40 {
		t.Fatalf("sizes %d/%d", d.TrainLen(), d.TestLen())
	}
	counts := make([]int, 10)
	for _, y := range d.TrainY {
		if y < 0 || y >= 10 {
			t.Fatalf("label %d out of range", y)
		}
		counts[y]++
	}
	for cl, n := range counts {
		if n != 10 {
			t.Fatalf("class %d has %d samples, want balanced 10", cl, n)
		}
	}
}

func TestCIFAR100LikeHasAllClasses(t *testing.T) {
	d := CIFAR100Like(200, 100, 16, 2)
	seen := map[int]bool{}
	for _, y := range d.TrainY {
		seen[y] = true
	}
	if len(seen) != 100 {
		t.Fatalf("train set covers %d classes, want 100", len(seen))
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := CIFAR10Like(20, 10, 16, 7)
	b := CIFAR10Like(20, 10, 16, 7)
	for i := range a.TrainX.Data {
		if a.TrainX.Data[i] != b.TrainX.Data[i] {
			t.Fatal("same seed must give identical data")
		}
	}
	c := CIFAR10Like(20, 10, 16, 8)
	same := true
	for i := range a.TrainX.Data {
		if a.TrainX.Data[i] != c.TrainX.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestClassesAreDistinguishable(t *testing.T) {
	// Mean intra-class distance must be well below inter-class distance,
	// otherwise the task is unlearnable.
	d := CIFAR10Like(200, 10, 16, 3)
	imgLen := d.C * d.H * d.W
	dist := func(i, j int) float64 {
		var s float64
		for k := 0; k < imgLen; k++ {
			diff := float64(d.TrainX.Data[i*imgLen+k] - d.TrainX.Data[j*imgLen+k])
			s += diff * diff
		}
		return s
	}
	var intra, inter float64
	var nIntra, nInter int
	for i := 0; i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			if d.TrainY[i] == d.TrainY[j] {
				intra += dist(i, j)
				nIntra++
			} else {
				inter += dist(i, j)
				nInter++
			}
		}
	}
	intra /= float64(nIntra)
	inter /= float64(nInter)
	// The generator is deliberately noisy (so fault effects are visible
	// against a non-saturated task); 1.2× still leaves a learnable margin,
	// as the training integration tests confirm.
	if inter < 1.2*intra {
		t.Fatalf("classes not separable: intra %v vs inter %v", intra, inter)
	}
}

func TestTrainBatchesShuffleAndShape(t *testing.T) {
	d := CIFAR10Like(64, 16, 16, 4)
	rng := tensor.NewRNG(1)
	batches := d.TrainBatches(16, rng)
	if len(batches) != 4 {
		t.Fatalf("got %d batches, want 4", len(batches))
	}
	for _, b := range batches {
		if b.X.Dim(0) != 16 || b.X.Dim(1) != 3 || len(b.Y) != 16 {
			t.Fatalf("batch shape %v / %d labels", b.X.Shape, len(b.Y))
		}
	}
	// Two different RNGs give different orders.
	b1 := d.TrainBatches(16, tensor.NewRNG(1))
	b2 := d.TrainBatches(16, tensor.NewRNG(2))
	diff := false
	for i := range b1[0].Y {
		if b1[0].Y[i] != b2[0].Y[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("shuffling appears inert")
	}
}

func TestTestBatchesDeterministicOrder(t *testing.T) {
	d := CIFAR10Like(32, 32, 16, 5)
	a := d.TestBatches(8)
	b := d.TestBatches(8)
	for i := range a {
		for j := range a[i].Y {
			if a[i].Y[j] != b[i].Y[j] {
				t.Fatal("test batches must be deterministic")
			}
		}
	}
}

func TestSVHNLikeGeometryAndInk(t *testing.T) {
	d := SVHNLike(50, 20, 32, 6)
	if d.Classes != 10 || d.H != 32 {
		t.Fatalf("bad geometry %+v", d)
	}
	// The centre digit uses high-contrast ink: every image must contain
	// pixels with |v| > 1 (backgrounds are sub-unit smooth fields).
	imgLen := d.C * d.H * d.W
	for i := 0; i < d.TrainLen(); i++ {
		found := false
		for _, v := range d.TrainX.Data[i*imgLen : (i+1)*imgLen] {
			if v > 1.0 || v < -1.0 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("image %d has no glyph ink", i)
		}
	}
}

func TestDatasetString(t *testing.T) {
	d := CIFAR10Like(10, 10, 16, 1)
	if d.String() == "" {
		t.Fatal("empty description")
	}
}

// Integration: a small CNN must learn CIFAR10Like far above chance.
func TestCIFAR10LikeIsLearnable(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	d := CIFAR10Like(600, 200, 16, 11)
	rng := tensor.NewRNG(1)
	g1 := tensor.ConvGeom{InC: 3, InH: 16, InW: 16, OutC: 8, K: 3, Stride: 1, Pad: 1}
	net := nn.NewNetwork(
		nn.NewConv2D("c1", g1, rng),
		nn.NewReLU("r1"),
		nn.NewMaxPool2D("p1", 2, 2),
		nn.NewFlatten("fl"),
		nn.NewLinear("fc", 8*8*8, 10, rng),
	)
	opt := nn.NewSGD(net, 0.03, 0.9)
	for epoch := 0; epoch < 6; epoch++ {
		for _, b := range d.TrainBatches(32, rng) {
			logits := net.Forward(b.X, true)
			_, grad := nn.SoftmaxCrossEntropy(logits, b.Y)
			net.Backward(grad)
			opt.Step()
		}
	}
	correct, total := 0, 0
	for _, b := range d.TestBatches(50) {
		logits := net.Forward(b.X, false)
		for i := range b.Y {
			if logits.ArgMaxRow(i) == b.Y[i] {
				correct++
			}
			total++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.6 {
		t.Fatalf("CIFAR10Like accuracy %.3f, want ≥0.6 (chance = 0.1)", acc)
	}
}

// Integration: SVHNLike must also be learnable.
func TestSVHNLikeIsLearnable(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	d := SVHNLike(600, 200, 16, 12)
	rng := tensor.NewRNG(2)
	g1 := tensor.ConvGeom{InC: 3, InH: 16, InW: 16, OutC: 12, K: 3, Stride: 1, Pad: 1}
	net := nn.NewNetwork(
		nn.NewConv2D("c1", g1, rng),
		nn.NewReLU("r1"),
		nn.NewMaxPool2D("p1", 2, 2),
		nn.NewFlatten("fl"),
		nn.NewLinear("fc", 12*8*8, 10, rng),
	)
	opt := nn.NewSGD(net, 0.03, 0.9)
	for epoch := 0; epoch < 8; epoch++ {
		for _, b := range d.TrainBatches(32, rng) {
			logits := net.Forward(b.X, true)
			_, grad := nn.SoftmaxCrossEntropy(logits, b.Y)
			net.Backward(grad)
			opt.Step()
		}
	}
	correct, total := 0, 0
	for _, b := range d.TestBatches(50) {
		logits := net.Forward(b.X, false)
		for i := range b.Y {
			if logits.ArgMaxRow(i) == b.Y[i] {
				correct++
			}
			total++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.5 {
		t.Fatalf("SVHNLike accuracy %.3f, want ≥0.5 (chance = 0.1)", acc)
	}
}
