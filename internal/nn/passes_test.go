package nn_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"remapd/internal/experiments"
	"remapd/internal/nn"
	"remapd/internal/tensor"
)

// The oracles below are the ReLU, MaxPool2D and BatchNorm2D loops as they
// were before the passes went branch-free: one branch per element, one
// serial float64 chain per BN channel statistic. The layers must match
// them bit for bit, caches included.

func oldReLUForward(x []float32) (y []float32, mask []bool) {
	y, mask = make([]float32, len(x)), make([]bool, len(x))
	for i, v := range x {
		if v > 0 {
			y[i] = v
			mask[i] = true
		} else {
			y[i] = 0
			mask[i] = false
		}
	}
	return y, mask
}

func oldReLUBackward(mask []bool, dy []float32) []float32 {
	dx := make([]float32, len(dy))
	for i, v := range dy {
		if mask[i] {
			dx[i] = v
		} else {
			dx[i] = 0
		}
	}
	return dx
}

func oldMaxPool(x *tensor.Tensor, k, s int) (y []float32, argmax []int) {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := (h-k)/s+1, (w-k)/s+1
	y, argmax = make([]float32, n*c*oh*ow), make([]int, n*c*oh*ow)
	oi := 0
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			plane := x.Data[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bi := (oy*s)*w + ox*s
					best, bidx := plane[bi], bi
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							idx := (oy*s+ky)*w + ox*s + kx
							if plane[idx] > best {
								best, bidx = plane[idx], idx
							}
						}
					}
					y[oi] = best
					argmax[oi] = (i*c+ch)*h*w + bidx
					oi++
				}
			}
		}
	}
	return y, argmax
}

// oldBN is BatchNorm2D's state and arithmetic before the channel
// interleaving, with the layer's defaults.
type oldBN struct {
	eps, momentum                                     float64
	gamma, beta, gradGamma, gradBeta, runMean, runVar []float32
	xHat, invStd                                      []float32
	shape                                             []int
}

func newOldBN(bn *nn.BatchNorm2D) *oldBN {
	cp := func(t *tensor.Tensor) []float32 { return append([]float32(nil), t.Data...) }
	return &oldBN{
		eps: bn.Eps, momentum: bn.Momentum,
		gamma: cp(bn.Gamma), beta: cp(bn.Beta), gradGamma: cp(bn.GradGamma), gradBeta: cp(bn.GradBeta),
		runMean: cp(bn.RunMean), runVar: cp(bn.RunVar),
	}
}

func (bn *oldBN) forward(x *tensor.Tensor, train bool) []float32 {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	bn.shape = append([]int(nil), x.Shape...)
	plane := h * w
	m := float64(n * plane)
	y := make([]float32, x.Len())
	bn.xHat, bn.invStd = make([]float32, x.Len()), make([]float32, c)
	for ch := 0; ch < c; ch++ {
		var mean, variance float64
		if train {
			var sum float64
			for i := 0; i < n; i++ {
				base := (i*c + ch) * plane
				for k := 0; k < plane; k++ {
					sum += float64(x.Data[base+k])
				}
			}
			mean = sum / m
			var sq float64
			for i := 0; i < n; i++ {
				base := (i*c + ch) * plane
				for k := 0; k < plane; k++ {
					d := float64(x.Data[base+k]) - mean
					sq += d * d
				}
			}
			variance = sq / m
			bn.runMean[ch] = float32((1-bn.momentum)*float64(bn.runMean[ch]) + bn.momentum*mean)
			bn.runVar[ch] = float32((1-bn.momentum)*float64(bn.runVar[ch]) + bn.momentum*variance)
		} else {
			mean = float64(bn.runMean[ch])
			variance = float64(bn.runVar[ch])
		}
		inv := float32(1 / math.Sqrt(variance+bn.eps))
		bn.invStd[ch] = inv
		g, b := bn.gamma[ch], bn.beta[ch]
		mf := float32(mean)
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for k := 0; k < plane; k++ {
				xh := (x.Data[base+k] - mf) * inv
				bn.xHat[base+k] = xh
				y[base+k] = g*xh + b
			}
		}
	}
	return y
}

func (bn *oldBN) backward(dy *tensor.Tensor) []float32 {
	n, c := bn.shape[0], bn.shape[1]
	plane := bn.shape[2] * bn.shape[3]
	m := float32(n * plane)
	dx := make([]float32, dy.Len())
	for ch := 0; ch < c; ch++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for k := 0; k < plane; k++ {
				d := float64(dy.Data[base+k])
				sumDy += d
				sumDyXhat += d * float64(bn.xHat[base+k])
			}
		}
		bn.gradGamma[ch] += float32(sumDyXhat)
		bn.gradBeta[ch] += float32(sumDy)

		g := bn.gamma[ch]
		inv := bn.invStd[ch]
		sDy := float32(sumDy)
		sDyX := float32(sumDyXhat)
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for k := 0; k < plane; k++ {
				xh := bn.xHat[base+k]
				dx[base+k] = g * inv / m * (m*dy.Data[base+k] - sDy - xh*sDyX)
			}
		}
	}
	return dx
}

// passGeoms are the input shapes (per image) of every ReLU, MaxPool2D and
// BatchNorm2D the six models build at quick scale.
type passGeoms struct {
	relu []int    // elements per image
	pool [][5]int // K, Stride, C, H, W
	bn   [][3]int // C, H, W
}

var (
	reluType = reflect.TypeOf(nn.ReLU{})
	poolType = reflect.TypeOf(nn.MaxPool2D{})
	bnType   = reflect.TypeOf(nn.BatchNorm2D{})
)

// quickScalePassGeoms runs each model forward once at batch 1 so that
// every layer has seen its input, then walks the layers (composites
// included) and reads the shapes back from their caches.
func quickScalePassGeoms(t *testing.T) passGeoms {
	t.Helper()
	var geoms passGeoms
	seenReLU, seenPool, seenBN := map[int]bool{}, map[[5]int]bool{}, map[[3]int]bool{}
	ints := func(v reflect.Value) []int {
		out := make([]int, v.Len())
		for i := range out {
			out[i] = int(v.Index(i).Int())
		}
		return out
	}
	s := experiments.QuickScale()
	for _, name := range []string{"vgg11", "vgg16", "vgg19", "resnet12", "resnet18", "squeezenet"} {
		net, err := experiments.BuildModel(name, s, 1, 10)
		if err != nil {
			t.Fatal(err)
		}
		net.Forward(tensor.New(1, 3, s.ImgSize, s.ImgSize), true)
		walkStructs(reflect.ValueOf(net.Layers), func(v reflect.Value) bool {
			switch v.Type() {
			case reluType:
				if n := v.FieldByName("mask").Len(); !seenReLU[n] {
					seenReLU[n] = true
					geoms.relu = append(geoms.relu, n)
				}
			case poolType:
				in := ints(v.FieldByName("inShape"))
				g := [5]int{int(v.FieldByName("K").Int()), int(v.FieldByName("Stride").Int()), in[1], in[2], in[3]}
				if !seenPool[g] {
					seenPool[g] = true
					geoms.pool = append(geoms.pool, g)
				}
			case bnType:
				in := ints(v.FieldByName("inShape"))
				if g := [3]int{in[1], in[2], in[3]}; !seenBN[g] {
					seenBN[g] = true
					geoms.bn = append(geoms.bn, g)
				}
			default:
				return false
			}
			return true
		})
	}
	if len(geoms.relu) == 0 || len(geoms.pool) == 0 || len(geoms.bn) == 0 {
		t.Fatalf("walk found %d ReLU, %d pool and %d BN geometries", len(geoms.relu), len(geoms.pool), len(geoms.bn))
	}
	return geoms
}

// fillPassOperand fills t from a mix the data passes must treat exactly:
// ±0, subnormals, ±1 and ±2 (so pool windows tie, and tie at the
// maximum), normal values, and ±Inf; then `nans` entries become NaN.
func fillPassOperand(t *tensor.Tensor, rng *tensor.RNG, nans int) {
	for i := range t.Data {
		switch rng.Intn(10) {
		case 0:
			t.Data[i] = 0
		case 1:
			t.Data[i] = float32(math.Copysign(0, -1))
		case 2:
			t.Data[i] = float32(rng.NormFloat64()) * 1e-40 // subnormal
		case 3, 4:
			t.Data[i] = float32(rng.Intn(5) - 2)
		default:
			t.Data[i] = float32(rng.NormFloat64())
		}
	}
	for s := 0; s < nans; s++ {
		t.Data[rng.Intn(len(t.Data))] = hardwareNaN()
	}
	t.Data[rng.Intn(len(t.Data))] = posInf
	t.Data[rng.Intn(len(t.Data))] = -posInf
}

// plantCancellingPair writes +1e20 and −1e20 at two random elements of
// every other channel of the N×C×H×W tensor t. A float64 sum over the
// channel absorbs whatever is added between the two, so the sum, and
// every statistic made from it, depends on the order of the additions.
func plantCancellingPair(t *tensor.Tensor, rng *tensor.RNG) {
	n, c, plane := t.Dim(0), t.Dim(1), t.Dim(2)*t.Dim(3)
	if n*plane < 2 {
		return
	}
	at := func(ch, j int) int { return (j/plane*c+ch)*plane + j%plane }
	for ch := 0; ch < c; ch += 2 {
		j := rng.Intn(n * plane)
		k := (j + 1 + rng.Intn(n*plane-1)) % (n * plane)
		t.Data[at(ch, j)], t.Data[at(ch, k)] = 1e20, -1e20
	}
}

// TestDataPassesMatchOldLoops pins ReLU, MaxPool2D and BatchNorm2D to the
// loops they replaced, bit for bit, on every shape the six models feed
// them at quick scale, at batch 1, 3 and 32: outputs, the ReLU mask, the
// pool argmax, BN's x̂, invStd, running statistics and parameter
// gradients, and every input gradient. Inputs carry ±0, subnormals, ties,
// NaN and ±Inf, and BN's cancelling pairs make its sums order-sensitive.
func TestDataPassesMatchOldLoops(t *testing.T) {
	geoms := quickScalePassGeoms(t)
	rng := tensor.NewRNG(37)
	for _, n := range []int{1, 3, 32} {
		for _, size := range geoms.relu {
			t.Run(fmt.Sprintf("relu_%d_n%d", size, n), func(t *testing.T) {
				x, dy := tensor.New(n, size), tensor.New(n, size)
				fillPassOperand(x, rng, 3)
				fillPassOperand(dy, rng, 3)
				r := nn.NewReLU("relu")
				wantY, wantMask := oldReLUForward(x.Data)
				bitsEqual(t, "Infer", r.Infer(x).Data, wantY)
				bitsEqual(t, "Forward", r.Forward(x, true).Data, wantY)
				if !reflect.DeepEqual(r.Mask(), wantMask) {
					t.Fatal("mask differs")
				}
				bitsEqual(t, "Backward", r.Backward(dy).Data, oldReLUBackward(wantMask, dy.Data))
			})
		}
		for _, g := range geoms.pool {
			k, s, c, h, w := g[0], g[1], g[2], g[3], g[4]
			t.Run(fmt.Sprintf("pool_k%ds%d_%dx%dx%d_n%d", k, s, c, h, w, n), func(t *testing.T) {
				x := tensor.New(n, c, h, w)
				fillPassOperand(x, rng, 1+x.Len()/64)
				p := nn.NewMaxPool2D("pool", k, s)
				wantY, wantArg := oldMaxPool(x, k, s)
				bitsEqual(t, "Forward", p.Forward(x, true).Data, wantY)
				if !reflect.DeepEqual(p.Argmax(), wantArg) {
					t.Fatal("argmax differs")
				}
			})
		}
		for _, g := range geoms.bn {
			c, h, w := g[0], g[1], g[2]
			t.Run(fmt.Sprintf("bn_%dx%dx%d_n%d", c, h, w, n), func(t *testing.T) {
				bn := nn.NewBatchNorm2D("bn", c)
				for _, p := range []*tensor.Tensor{bn.Gamma, bn.Beta, bn.GradGamma, bn.GradBeta, bn.RunMean} {
					rng.FillNormal(p, 1)
				}
				for i := range bn.RunVar.Data {
					bn.RunVar.Data[i] = float32(rng.Float64()) + 0.5
				}
				x, dy := tensor.New(n, c, h, w), tensor.New(n, c, h, w)
				fillPassOperand(x, rng, 0)
				fillPassOperand(dy, rng, 0)
				plantCancellingPair(x, rng)
				plantCancellingPair(dy, rng)
				// One NaN and the two infinities land in a few channels
				// only, so most channels' statistics stay finite.
				x.Data[rng.Intn(x.Len())] = hardwareNaN()
				old := newOldBN(bn)

				checkState := func(t *testing.T) {
					t.Helper()
					xHat, invStd := bn.Caches()
					bitsEqual(t, "xHat", xHat.Data, old.xHat)
					bitsEqual(t, "invStd", invStd, old.invStd)
					bitsEqual(t, "RunMean", bn.RunMean.Data, old.runMean)
					bitsEqual(t, "RunVar", bn.RunVar.Data, old.runVar)
				}
				bitsEqual(t, "Infer", bn.Infer(x).Data, old.forward(x, false))
				bitsEqual(t, "Forward eval", bn.Forward(x, false).Data, old.forward(x, false))
				checkState(t)
				bitsEqual(t, "Forward train", bn.Forward(x, true).Data, old.forward(x, true))
				checkState(t)
				bitsEqual(t, "Backward", bn.Backward(dy).Data, old.backward(dy))
				bitsEqual(t, "GradGamma", bn.GradGamma.Data, old.gradGamma)
				bitsEqual(t, "GradBeta", bn.GradBeta.Data, old.gradBeta)
			})
		}
	}
}

// BenchmarkInferVGG11 times one forward-only pass of the quick-scale
// vgg11 at batch 8, the serving batch: conv, BN, ReLU, pool and the
// classifier, 0 allocs/op once warm. Its GEMMs stay below the tensor
// package's parallel threshold only under -cpu=1, which is how the gated
// set runs it.
func BenchmarkInferVGG11(b *testing.B) {
	s := experiments.QuickScale()
	net, err := experiments.BuildModel("vgg11", s, 1, 10)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(8, 3, s.ImgSize, s.ImgSize)
	tensor.NewRNG(41).FillNormal(x, 1)
	net.Forward(x, true) // non-trivial BN running statistics
	net.Infer(x)         // warm the workspaces
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Infer(x)
	}
}
