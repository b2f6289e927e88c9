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

// refConv is the oracle for Conv2D: the (N·R)-major convolution this
// package ran before the unfold orientation. Its patch matrix has one row
// per output pixel (image, oy, ox) and one column per tap (c, ky, kx); the
// forward is cols·Wᵀ with the bias added to every row, dW = dyfᵀ·cols and
// dcols = dyf·Wb with the GEMMs' zero-skip on the dy factor, and col2im
// scatters the pixel rows in ascending order.
type refConv struct {
	g    tensor.ConvGeom
	n    int
	cols *tensor.Tensor // (N·R)×(C·K²)
}

func (c *refConv) forward(x, w, b *tensor.Tensor) *tensor.Tensor {
	g := c.g
	c.n = x.Dim(0)
	rows, taps := g.OutH()*g.OutW(), g.ColRows()
	c.cols = tensor.New(c.n*rows, taps)
	imgLen := g.InC * g.InH * g.InW
	for i := 0; i < c.n; i++ {
		refIm2Col(g, c.cols.Data[i*rows*taps:(i+1)*rows*taps], x.Data[i*imgLen:(i+1)*imgLen])
	}
	out := tensor.New(c.n*rows, g.OutC)
	refMatMulTransB(out, c.cols, w.Reshape(g.OutC, taps))
	for r := 0; r < c.n*rows; r++ {
		row := out.Data[r*g.OutC : (r+1)*g.OutC]
		for j := range row {
			row[j] += b.Data[j]
		}
	}
	y := tensor.New(c.n, g.OutC, g.OutH(), g.OutW())
	for i := 0; i < c.n; i++ {
		img := out.Data[i*rows*g.OutC : (i+1)*rows*g.OutC]
		for oc := 0; oc < g.OutC; oc++ {
			plane := y.Data[(i*g.OutC+oc)*rows : (i*g.OutC+oc+1)*rows]
			for r := range plane {
				plane[r] = img[r*g.OutC+oc]
			}
		}
	}
	return y
}

func (c *refConv) backward(dy, w, gradW, gradB *tensor.Tensor) *tensor.Tensor {
	g := c.g
	rows, taps := g.OutH()*g.OutW(), g.ColRows()
	dyf := tensor.New(c.n*rows, g.OutC)
	for i := 0; i < c.n; i++ {
		img := dyf.Data[i*rows*g.OutC : (i+1)*rows*g.OutC]
		for oc := 0; oc < g.OutC; oc++ {
			src := dy.Data[(i*g.OutC+oc)*rows : (i*g.OutC+oc+1)*rows]
			for r, v := range src {
				img[r*g.OutC+oc] = v
			}
		}
	}
	refMatMulTransA(gradW.Reshape(g.OutC, taps), dyf, c.cols)
	for r := 0; r < c.n*rows; r++ {
		row := dyf.Data[r*g.OutC : (r+1)*g.OutC]
		for j, v := range row {
			gradB.Data[j] += v
		}
	}
	dcols := tensor.New(c.n*rows, taps)
	refMatMul(dcols, dyf, w.Reshape(g.OutC, taps))
	dx := tensor.New(c.n, g.InC, g.InH, g.InW)
	imgLen := g.InC * g.InH * g.InW
	for i := 0; i < c.n; i++ {
		refCol2Im(g, dx.Data[i*imgLen:(i+1)*imgLen], dcols.Data[i*rows*taps:(i+1)*rows*taps])
	}
	return dx
}

// refIm2Col lowers one image into its (OH·OW)×(C·K²) pixel rows.
func refIm2Col(g tensor.ConvGeom, dst, src []float32) {
	di := 0
	for oy := 0; oy < g.OutH(); oy++ {
		for ox := 0; ox < g.OutW(); ox++ {
			for c := 0; c < g.InC; c++ {
				for ky := 0; ky < g.K; ky++ {
					for kx := 0; kx < g.K; kx++ {
						iy, ix := oy*g.Stride+ky-g.Pad, ox*g.Stride+kx-g.Pad
						var v float32
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							v = src[(c*g.InH+iy)*g.InW+ix]
						}
						dst[di] = v
						di++
					}
				}
			}
		}
	}
}

// refCol2Im scatters one image's pixel rows back, in ascending pixel order.
func refCol2Im(g tensor.ConvGeom, dst, src []float32) {
	si := 0
	for oy := 0; oy < g.OutH(); oy++ {
		for ox := 0; ox < g.OutW(); ox++ {
			for c := 0; c < g.InC; c++ {
				for ky := 0; ky < g.K; ky++ {
					for kx := 0; kx < g.K; kx++ {
						iy, ix := oy*g.Stride+ky-g.Pad, ox*g.Stride+kx-g.Pad
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							dst[(c*g.InH+iy)*g.InW+ix] += src[si]
						}
						si++
					}
				}
			}
		}
	}
}

// quickScaleConvGeoms returns every distinct conv geometry the six models
// build at quick scale, found by walking each network's layers (composite
// blocks such as residual and fire modules included).
func quickScaleConvGeoms(t *testing.T) []tensor.ConvGeom {
	t.Helper()
	seen := map[tensor.ConvGeom]bool{}
	var geoms []tensor.ConvGeom
	for _, name := range []string{"vgg11", "vgg16", "vgg19", "resnet12", "resnet18", "squeezenet"} {
		net, err := experiments.BuildModel(name, experiments.QuickScale(), 1, 10)
		if err != nil {
			t.Fatal(err)
		}
		before := len(geoms)
		walkConvGeoms(reflect.ValueOf(net.Layers), func(g tensor.ConvGeom) {
			if !seen[g] {
				seen[g] = true
				geoms = append(geoms, g)
			}
		})
		if len(geoms) == before && name == "vgg11" {
			t.Fatalf("%s: no conv geometry found", name)
		}
	}
	return geoms
}

var convType = reflect.TypeOf(nn.Conv2D{})

// walkConvGeoms calls visit with the geometry of every nn.Conv2D
// reachable from v (see walkStructs).
func walkConvGeoms(v reflect.Value, visit func(tensor.ConvGeom)) {
	walkStructs(v, func(v reflect.Value) bool {
		if v.Type() != convType {
			return false
		}
		geom := v.FieldByName("Geom")
		field := func(name string) int { return int(geom.FieldByName(name).Int()) }
		visit(tensor.ConvGeom{
			InC: field("InC"), InH: field("InH"), InW: field("InW"), OutC: field("OutC"),
			K: field("K"), Stride: field("Stride"), Pad: field("Pad"),
		})
		return true
	})
}

// walkStructs calls visit on every struct reachable from v through
// pointers, interfaces, structs and slices, and descends into the struct
// unless visit returns true. It reads unexported fields too, so layers
// that keep theirs private (models.Fire) are covered.
func walkStructs(v reflect.Value, visit func(reflect.Value) bool) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			walkStructs(v.Elem(), visit)
		}
	case reflect.Slice:
		if k := v.Type().Elem().Kind(); k == reflect.Pointer || k == reflect.Interface || k == reflect.Struct {
			for i := 0; i < v.Len(); i++ {
				walkStructs(v.Index(i), visit)
			}
		}
	case reflect.Struct:
		if visit(v) {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			walkStructs(v.Field(i), visit)
		}
	}
}

// posInf is a variable so that hardwareNaN's subtraction runs at run time.
var posInf = float32(math.Inf(1))

// hardwareNaN is the NaN the FPU produces for 0·Inf mid-chain. Go does
// not define which of two NaN operands' bits an operation keeps, so the
// operands carry this NaN only and every NaN in a run is alike.
func hardwareNaN() float32 { return posInf - posInf }

// fillConvOperand fills t with normal values, ±0 (one in eight each) and
// 1e-20-scale values, then plants `salt` non-finite entries (NaN, +Inf,
// −Inf) at random positions: few enough that most outputs stay finite.
func fillConvOperand(t *tensor.Tensor, rng *tensor.RNG, salt int) {
	for i := range t.Data {
		switch rng.Intn(8) {
		case 0:
			t.Data[i] = 0
		case 1:
			t.Data[i] = float32(math.Copysign(0, -1))
		case 2:
			t.Data[i] = float32(rng.NormFloat64()) * 1e-20
		default:
			t.Data[i] = float32(rng.NormFloat64())
		}
	}
	nonFinite := []float32{hardwareNaN(), posInf, -posInf}
	for s := 0; s < salt; s++ {
		t.Data[rng.Intn(len(t.Data))] = nonFinite[s%len(nonFinite)]
	}
}

func bitsEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %x (%g), want %x (%g)",
				what, i, math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

// TestConv2DMatchesPixelMajorOracle pins the unfold-oriented Conv2D to
// the pixel-major convolution it replaced, bit for bit: y, dx, GradW and
// GradB, on every quick-scale model geometry plus a strided and a 1×1
// unpadded one, at batch 1, 3 (a column count off the kernel tile) and
// 32 (the training batch). Operands mix ±0, 1e-20, NaN and ±Inf in x, W
// and dy, so the forward's count-every-product and the backward's
// skip-a-zero-dy contracts are both exercised.
func TestConv2DMatchesPixelMajorOracle(t *testing.T) {
	geoms := append(quickScaleConvGeoms(t),
		tensor.ConvGeom{InC: 3, InH: 9, InW: 7, OutC: 5, K: 3, Stride: 2, Pad: 1},
		tensor.ConvGeom{InC: 6, InH: 5, InW: 5, OutC: 10, K: 1, Stride: 1, Pad: 0},
	)
	rng := tensor.NewRNG(23)
	for _, g := range geoms {
		for _, n := range []int{1, 3, 32} {
			t.Run(fmt.Sprintf("%dx%dx%d_to_%d_k%ds%dp%d_n%d", g.InC, g.InH, g.InW, g.OutC, g.K, g.Stride, g.Pad, n), func(t *testing.T) {
				conv := nn.NewConv2D("conv", g, rng)
				x := tensor.New(n, g.InC, g.InH, g.InW)
				dy := tensor.New(n, g.OutC, g.OutH(), g.OutW())
				for _, op := range []*tensor.Tensor{x, conv.W, dy} {
					fillConvOperand(op, rng, 3)
				}
				rng.FillNormal(conv.B, 1)

				ref := &refConv{g: g}
				wantY := ref.forward(x, conv.W, conv.B)
				wantGW, wantGB := tensor.New(conv.W.Shape...), tensor.New(g.OutC)
				wantDX := ref.backward(dy, conv.W, wantGW, wantGB)

				bitsEqual(t, "y", conv.Forward(x, true).Data, wantY.Data)
				conv.GradW.Zero()
				conv.GradB.Zero()
				bitsEqual(t, "dx", conv.Backward(dy).Data, wantDX.Data)
				bitsEqual(t, "GradW", conv.GradW.Data, wantGW.Data)
				bitsEqual(t, "GradB", conv.GradB.Data, wantGB.Data)
			})
		}
	}
}

// TestConv2DZeroDyContributesNothing pins the backward's zero-skip: with
// dy all ±0, no product reaches dW or dx, even against NaN and ±Inf
// inputs and weights (whose products with 0 would be NaN), so both
// gradients are exactly +0.
func TestConv2DZeroDyContributesNothing(t *testing.T) {
	g := tensor.ConvGeom{InC: 4, InH: 6, InW: 6, OutC: 8, K: 3, Stride: 1, Pad: 1}
	rng := tensor.NewRNG(29)
	conv := nn.NewConv2D("conv", g, rng)
	x := tensor.New(2, g.InC, g.InH, g.InW)
	nonFinite := []float32{hardwareNaN(), posInf, -posInf}
	for i := range x.Data {
		x.Data[i] = nonFinite[i%3]
	}
	for i := range conv.W.Data {
		conv.W.Data[i] = nonFinite[(i+1)%3]
	}
	dy := tensor.New(2, g.OutC, g.OutH(), g.OutW())
	for i := range dy.Data {
		if i%2 == 1 {
			dy.Data[i] = float32(math.Copysign(0, -1))
		}
	}
	conv.Forward(x, true)
	conv.GradW.Zero()
	dx := conv.Backward(dy)
	for _, tc := range []struct {
		name string
		data []float32
	}{{"dx", dx.Data}, {"GradW", conv.GradW.Data}} {
		for i, v := range tc.data {
			if math.Float32bits(v) != 0 {
				t.Fatalf("%s[%d] = %g, want +0", tc.name, i, v)
			}
		}
	}
}

// vgg11ConvStack builds the quick-scale vgg11 conv layers with batch-32
// inputs and output gradients, and returns one fwd+bwd pass over them.
func vgg11ConvStack(tb testing.TB) func() {
	net, err := experiments.BuildModel("vgg11", experiments.QuickScale(), 1, 10)
	if err != nil {
		tb.Fatal(err)
	}
	const batch = 32
	rng := tensor.NewRNG(31)
	var convs []*nn.Conv2D
	var xs, dys []*tensor.Tensor
	walkConvGeoms(reflect.ValueOf(net.Layers), func(g tensor.ConvGeom) {
		convs = append(convs, nn.NewConv2D(fmt.Sprintf("conv%d", len(convs)), g, rng))
		x := tensor.New(batch, g.InC, g.InH, g.InW)
		dy := tensor.New(batch, g.OutC, g.OutH(), g.OutW())
		rng.FillNormal(x, 1)
		rng.FillNormal(dy, 1)
		xs, dys = append(xs, x), append(dys, dy)
	})
	return func() {
		for i, c := range convs {
			c.Forward(xs[i], true)
			c.Backward(dys[i])
		}
	}
}

// BenchmarkConvVGG11 times one training step's conv work at quick scale:
// forward and backward of the eight vgg11 conv layers at batch 32, with
// normal-range operands. Below parallelThreshold per GEMM only under
// -cpu=1, which is how the gated set runs it; 0 allocs/op once warm.
func BenchmarkConvVGG11(b *testing.B) {
	run := vgg11ConvStack(b)
	run() // warm the workspaces
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
