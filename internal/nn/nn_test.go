package nn

import (
	"math"
	"testing"

	"remapd/internal/tensor"
)

// numericalGrad estimates d loss / d t[i] by central differences, where
// loss() recomputes the full forward pass and loss.
func numericalGrad(t *tensor.Tensor, i int, loss func() float64) float64 {
	const eps = 1e-3
	orig := t.Data[i]
	t.Data[i] = orig + eps
	lp := loss()
	t.Data[i] = orig - eps
	lm := loss()
	t.Data[i] = orig
	return (lp - lm) / (2 * eps)
}

// checkLayerGradients runs a forward+backward through layer on input x with
// a quadratic loss L = ½Σy², then verifies analytic parameter and input
// gradients against numeric ones.
func checkLayerGradients(t *testing.T, layer Layer, x *tensor.Tensor, samples int) {
	t.Helper()
	lossFn := func() float64 {
		y := layer.Forward(x, true)
		var s float64
		for _, v := range y.Data {
			s += 0.5 * float64(v) * float64(v)
		}
		return s
	}

	y := layer.Forward(x, true)
	dy := y.Clone() // dL/dy = y for the quadratic loss
	for _, p := range layer.Params() {
		p.Grad.Zero()
	}
	dx := layer.Backward(dy)

	for _, p := range layer.Params() {
		n := p.W.Len()
		step := n / samples
		if step == 0 {
			step = 1
		}
		for i := 0; i < n; i += step {
			want := numericalGrad(p.W, i, lossFn)
			got := float64(p.Grad.Data[i])
			if math.Abs(want-got) > 2e-2*(1+math.Abs(want)) {
				t.Fatalf("param %s grad[%d]: analytic %v vs numeric %v", p.Name, i, got, want)
			}
		}
	}
	n := x.Len()
	step := n / samples
	if step == 0 {
		step = 1
	}
	for i := 0; i < n; i += step {
		want := numericalGrad(x, i, lossFn)
		got := float64(dx.Data[i])
		if math.Abs(want-got) > 2e-2*(1+math.Abs(want)) {
			t.Fatalf("input grad[%d]: analytic %v vs numeric %v", i, got, want)
		}
	}
}

func TestLinearGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear("fc", 7, 5, rng)
	x := tensor.New(3, 7)
	rng.FillNormal(x, 1)
	checkLayerGradients(t, l, x, 20)
}

func TestConv2DGradients(t *testing.T) {
	rng := tensor.NewRNG(2)
	g := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, OutC: 3, K: 3, Stride: 1, Pad: 1}
	c := NewConv2D("conv", g, rng)
	x := tensor.New(2, 2, 6, 6)
	rng.FillNormal(x, 1)
	checkLayerGradients(t, c, x, 20)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := tensor.NewRNG(3)
	g := tensor.ConvGeom{InC: 2, InH: 7, InW: 7, OutC: 2, K: 3, Stride: 2, Pad: 1}
	c := NewConv2D("conv_s2", g, rng)
	x := tensor.New(2, 2, 7, 7)
	rng.FillNormal(x, 1)
	checkLayerGradients(t, c, x, 15)
}

func TestBatchNormGradients(t *testing.T) {
	rng := tensor.NewRNG(4)
	bn := NewBatchNorm2D("bn", 3)
	// Non-trivial gamma/beta so gradients are informative.
	for i := range bn.Gamma.Data {
		bn.Gamma.Data[i] = 1 + 0.2*float32(i)
		bn.Beta.Data[i] = 0.1 * float32(i)
	}
	x := tensor.New(4, 3, 3, 3)
	rng.FillNormal(x, 1)
	checkLayerGradients(t, bn, x, 15)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := tensor.NewRNG(5)
	p := NewMaxPool2D("mp", 2, 2)
	x := tensor.New(2, 2, 6, 6)
	rng.FillNormal(x, 1)
	checkLayerGradients(t, p, x, 20)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := tensor.NewRNG(7)
	p := NewGlobalAvgPool("gap")
	x := tensor.New(3, 4, 3, 3)
	rng.FillNormal(x, 1)
	checkLayerGradients(t, p, x, 20)
}

func TestReLUGradients(t *testing.T) {
	rng := tensor.NewRNG(8)
	r := NewReLU("relu")
	x := tensor.New(4, 9)
	rng.FillNormal(x, 1)
	// Nudge values away from 0 where the subgradient is ambiguous.
	for i, v := range x.Data {
		if v > -0.05 && v < 0.05 {
			x.Data[i] = 0.1
		}
	}
	checkLayerGradients(t, r, x, 20)
}

func TestResidualGradients(t *testing.T) {
	rng := tensor.NewRNG(9)
	g := tensor.ConvGeom{InC: 2, InH: 5, InW: 5, OutC: 2, K: 3, Stride: 1, Pad: 1}
	body := []Layer{NewConv2D("rb.conv", g, rng), NewReLU("rb.relu")}
	blk := NewResidual("rb", body, nil)
	x := tensor.New(2, 2, 5, 5)
	rng.FillNormal(x, 1)
	y := blk.Forward(x, true)
	if !y.SameShape(x) {
		t.Fatalf("identity residual must preserve shape, got %v", y.Shape)
	}
	checkLayerGradients(t, blk, x, 15)
}

func TestResidualProjectionShortcut(t *testing.T) {
	rng := tensor.NewRNG(10)
	gBody := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, OutC: 4, K: 3, Stride: 2, Pad: 1}
	gProj := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, OutC: 4, K: 1, Stride: 2, Pad: 0}
	blk := NewResidual("rp",
		[]Layer{NewConv2D("rp.conv", gBody, rng)},
		[]Layer{NewConv2D("rp.proj", gProj, rng)})
	x := tensor.New(1, 2, 6, 6)
	rng.FillNormal(x, 1)
	y := blk.Forward(x, true)
	if y.Dim(1) != 4 || y.Dim(2) != 3 {
		t.Fatalf("projection residual output shape %v", y.Shape)
	}
	checkLayerGradients(t, blk, x, 15)
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	rng := tensor.NewRNG(11)
	logits := tensor.New(4, 6)
	rng.FillNormal(logits, 1)
	labels := []int{1, 3, 0, 5}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	for i := 0; i < logits.Len(); i += 3 {
		want := numericalGrad(logits, i, func() float64 {
			l, _ := SoftmaxCrossEntropy(logits, labels)
			return l
		})
		got := float64(grad.Data[i])
		if math.Abs(want-got) > 1e-3 {
			t.Fatalf("CE grad[%d]: %v vs %v", i, got, want)
		}
	}
}

func TestSoftmaxCrossEntropyStability(t *testing.T) {
	logits := tensor.FromSlice([]float32{1000, 999, 998}, 1, 3)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss not finite: %v", loss)
	}
	for _, v := range grad.Data {
		if math.IsNaN(float64(v)) {
			t.Fatal("gradient contains NaN for large logits")
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		0.9, 0.1,
		0.2, 0.8,
		0.7, 0.3,
	}, 3, 2)
	acc := Accuracy(logits, []int{0, 1, 1})
	if math.Abs(acc-2.0/3.0) > 1e-9 {
		t.Fatalf("accuracy %v", acc)
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	rng := tensor.NewRNG(12)
	d := NewDropout("do", 0.5, rng)
	x := tensor.New(2, 10)
	rng.FillNormal(x, 1)
	y := d.Forward(x, false)
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatal("eval-mode dropout must be identity")
		}
	}
}

func TestDropoutTrainMaskAndScale(t *testing.T) {
	rng := tensor.NewRNG(13)
	d := NewDropout("do", 0.5, rng)
	x := tensor.New(1, 1000)
	x.Fill(1)
	y := d.Forward(x, true)
	kept := 0
	for _, v := range y.Data {
		switch v {
		case 0:
		case 2: // 1/(1-0.5)
			kept++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if kept < 400 || kept > 600 {
		t.Fatalf("dropout kept %d of 1000, expected ≈500", kept)
	}
	// Backward must use the same mask.
	dy := tensor.New(1, 1000)
	dy.Fill(1)
	dx := d.Backward(dy)
	for i := range dx.Data {
		if (y.Data[i] == 0) != (dx.Data[i] == 0) {
			t.Fatal("backward mask differs from forward mask")
		}
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(14)
	f := NewFlatten("fl")
	x := tensor.New(2, 3, 4, 4)
	rng.FillNormal(x, 1)
	y := f.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 48 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	dx := f.Backward(y)
	if !dx.SameShape(x) {
		t.Fatalf("unflatten shape %v", dx.Shape)
	}
}

func TestBatchNormNormalisesBatch(t *testing.T) {
	rng := tensor.NewRNG(15)
	bn := NewBatchNorm2D("bn", 2)
	x := tensor.New(8, 2, 4, 4)
	rng.FillNormal(x, 3)
	for i := range x.Data {
		x.Data[i] += 5
	}
	y := bn.Forward(x, true)
	// Each channel of y should be ~N(0,1) over batch+space.
	for ch := 0; ch < 2; ch++ {
		var sum, sq float64
		cnt := 0
		for i := 0; i < 8; i++ {
			base := (i*2 + ch) * 16
			for k := 0; k < 16; k++ {
				v := float64(y.Data[base+k])
				sum += v
				sq += v * v
				cnt++
			}
		}
		mean := sum / float64(cnt)
		variance := sq/float64(cnt) - mean*mean
		if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-2 {
			t.Fatalf("channel %d normalised to mean=%v var=%v", ch, mean, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := tensor.NewRNG(16)
	bn := NewBatchNorm2D("bn", 1)
	x := tensor.New(16, 1, 2, 2)
	for e := 0; e < 50; e++ {
		rng.FillNormal(x, 2)
		for i := range x.Data {
			x.Data[i] += 3
		}
		bn.Forward(x, true)
	}
	// Running stats should approach mean 3, var 4.
	if math.Abs(float64(bn.RunMean.Data[0])-3) > 0.5 {
		t.Fatalf("running mean %v, want ≈3", bn.RunMean.Data[0])
	}
	if math.Abs(float64(bn.RunVar.Data[0])-4) > 1.2 {
		t.Fatalf("running var %v, want ≈4", bn.RunVar.Data[0])
	}
	// Eval mode on a fresh batch must use those stats (so a batch centred at
	// 3 maps near zero).
	rng.FillNormal(x, 0.01)
	for i := range x.Data {
		x.Data[i] += 3
	}
	y := bn.Forward(x, false)
	if m := y.Sum() / float64(y.Len()); math.Abs(m) > 0.2 {
		t.Fatalf("eval-mode output mean %v, want ≈0", m)
	}
}

// zeroBackwardFabric zeroes the backward weight copy while leaving the
// forward copy intact — the two MVM paths must be independent.
type zeroBackwardFabric struct{ IdealFabric }

func (zeroBackwardFabric) EffectiveBackward(_ string, w *tensor.Tensor) *tensor.Tensor {
	z := tensor.New(w.Shape...)
	return z
}

func TestFabricSeparatesForwardAndBackwardPaths(t *testing.T) {
	rng := tensor.NewRNG(17)
	l := NewLinear("fc", 4, 3, rng)
	net := NewNetwork(l)
	net.SetFabric(zeroBackwardFabric{})
	x := tensor.New(2, 4)
	rng.FillNormal(x, 1)
	y := net.Forward(x, true)
	if y.AbsMax() == 0 {
		t.Fatal("forward path should be unaffected by backward fabric clamp")
	}
	dy := tensor.New(2, 3)
	dy.Fill(1)
	dx := net.Backward(dy)
	if dx.AbsMax() != 0 {
		t.Fatal("backward path must use the (zeroed) backward weight copy")
	}
	if l.GradW.AbsMax() == 0 {
		t.Fatal("weight gradient should still be computed from activations")
	}
}

func TestNetworkMVMLayersRecursesResiduals(t *testing.T) {
	rng := tensor.NewRNG(18)
	g := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, OutC: 2, K: 3, Stride: 1, Pad: 1}
	blk := NewResidual("b1", []Layer{NewConv2D("b1.conv1", g, rng)}, nil)
	net := NewNetwork(NewConv2D("stem", g, rng), blk, NewFlatten("fl"), NewLinear("fc", 32, 4, rng))
	got := net.MVMLayers()
	want := []string{"stem", "b1.conv1", "fc"}
	if len(got) != len(want) {
		t.Fatalf("MVMLayers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MVMLayers = %v, want %v", got, want)
		}
	}
	if net.LayerWeight("b1.conv1") == nil {
		t.Fatal("LayerWeight must find layers inside residual blocks")
	}
	if net.LayerWeight("nope") != nil {
		t.Fatal("LayerWeight must return nil for unknown layers")
	}
}

func TestSGDMomentumUpdate(t *testing.T) {
	rng := tensor.NewRNG(19)
	l := NewLinear("fc", 1, 1, rng)
	l.W.Data[0] = 1
	l.B.Data[0] = 0
	net := NewNetwork(l)
	opt := NewSGD(net, 0.1, 0.9)
	opt.GradClip = 0

	// Constant gradient of 1 on W: v1=1, w=1−0.1; v2=1.9, w=1−0.1−0.19.
	l.GradW.Data[0] = 1
	opt.Step()
	if math.Abs(float64(l.W.Data[0])-0.9) > 1e-6 {
		t.Fatalf("after step1 w=%v", l.W.Data[0])
	}
	l.GradW.Data[0] = 1
	opt.Step()
	if math.Abs(float64(l.W.Data[0])-(0.9-0.19)) > 1e-6 {
		t.Fatalf("after step2 w=%v", l.W.Data[0])
	}
	if opt.Steps() != 2 {
		t.Fatalf("Steps=%d", opt.Steps())
	}
}

// Integration: a small MLP must learn a linearly-separable toy problem.
func TestTrainingConvergesOnToyProblem(t *testing.T) {
	rng := tensor.NewRNG(21)
	net := NewNetwork(
		NewLinear("fc1", 2, 16, rng),
		NewReLU("r1"),
		NewLinear("fc2", 16, 2, rng),
	)
	opt := NewSGD(net, 0.1, 0.9)

	sample := func(n int) (*tensor.Tensor, []int) {
		x := tensor.New(n, 2)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			a, b := rng.NormFloat64(), rng.NormFloat64()
			x.Data[i*2] = float32(a)
			x.Data[i*2+1] = float32(b)
			if a+b > 0 {
				labels[i] = 1
			}
		}
		return x, labels
	}

	for it := 0; it < 200; it++ {
		x, labels := sample(32)
		logits := net.Forward(x, true)
		_, grad := SoftmaxCrossEntropy(logits, labels)
		net.Backward(grad)
		opt.Step()
	}
	x, labels := sample(512)
	acc := Accuracy(net.Forward(x, false), labels)
	if acc < 0.95 {
		t.Fatalf("toy problem accuracy %.3f, want ≥0.95", acc)
	}
}

// Integration: a tiny CNN must learn to classify constant-vs-checker images.
func TestConvNetLearnsTexture(t *testing.T) {
	rng := tensor.NewRNG(22)
	g := tensor.ConvGeom{InC: 1, InH: 8, InW: 8, OutC: 4, K: 3, Stride: 1, Pad: 1}
	net := NewNetwork(
		NewConv2D("c1", g, rng),
		NewReLU("r1"),
		NewMaxPool2D("p1", 2, 2),
		NewFlatten("fl"),
		NewLinear("fc", 4*4*4, 2, rng),
	)
	opt := NewSGD(net, 0.05, 0.9)

	sample := func(n int) (*tensor.Tensor, []int) {
		x := tensor.New(n, 1, 8, 8)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			cls := rng.Intn(2)
			labels[i] = cls
			for yy := 0; yy < 8; yy++ {
				for xx := 0; xx < 8; xx++ {
					v := 0.5
					if cls == 1 && (yy+xx)%2 == 0 {
						v = -0.5
					}
					x.Data[i*64+yy*8+xx] = float32(v + 0.1*rng.NormFloat64())
				}
			}
		}
		return x, labels
	}

	for it := 0; it < 120; it++ {
		x, labels := sample(16)
		logits := net.Forward(x, true)
		_, grad := SoftmaxCrossEntropy(logits, labels)
		net.Backward(grad)
		opt.Step()
	}
	x, labels := sample(256)
	acc := Accuracy(net.Forward(x, false), labels)
	if acc < 0.9 {
		t.Fatalf("texture CNN accuracy %.3f, want ≥0.9", acc)
	}
}
