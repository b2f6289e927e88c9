package nn_test

import (
	"fmt"
	"reflect"
	"testing"

	"remapd/internal/experiments"
	"remapd/internal/nn"
	"remapd/internal/tensor"
)

// The three GEMM loops below are the oracles of Linear and of refConv:
// the row-major products both layers ran before they moved onto the tile
// GEMMs. Each output element is one chain from +0 in ascending inner
// index; the two backward loops leave out every product whose a factor
// (dy in both layers) is ±0.

// refMatMul computes out = a·b (a m×k, b k×n), skipping a zero a.
func refMatMul(out, a, b *tensor.Tensor) {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out.Zero()
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for p, av := range arow {
			if av == 0 { //lint:allow float-eq reference mirrors the kernel's zero-skip
				continue
			}
			for j, bv := range b.Data[p*n : (p+1)*n] {
				orow[j] += float32(av * bv)
			}
		}
	}
}

// refMatMulTransB computes out = a·bᵀ (a m×k, b n×k) as dot products,
// counting every product.
func refMatMulTransB(out, a, b *tensor.Tensor) {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s float32
			for p, av := range arow {
				s += float32(av * brow[p])
			}
			out.Data[i*n+j] = s
		}
	}
}

// refMatMulTransA computes out = aᵀ·b (a k×m, b k×n), skipping a zero a.
func refMatMulTransA(out, a, b *tensor.Tensor) {
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out.Zero()
	for p := 0; p < k; p++ {
		brow := b.Data[p*n : (p+1)*n]
		for i, av := range a.Data[p*m : (p+1)*m] {
			if av == 0 { //lint:allow float-eq reference mirrors the kernel's zero-skip
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += float32(av * bv)
			}
		}
	}
}

// quickScaleLinearShapes returns the distinct (In, Out) of the six
// models' Linear heads at quick scale.
func quickScaleLinearShapes(t *testing.T) [][2]int {
	t.Helper()
	linearType := reflect.TypeOf(nn.Linear{})
	seen := map[[2]int]bool{}
	var shapes [][2]int
	for _, name := range []string{"vgg11", "vgg16", "vgg19", "resnet12", "resnet18", "squeezenet"} {
		net, err := experiments.BuildModel(name, experiments.QuickScale(), 1, 10)
		if err != nil {
			t.Fatal(err)
		}
		walkStructs(reflect.ValueOf(net.Layers), func(v reflect.Value) bool {
			if v.Type() != linearType {
				return false
			}
			s := [2]int{int(v.FieldByName("In").Int()), int(v.FieldByName("Out").Int())}
			if !seen[s] {
				seen[s] = true
				shapes = append(shapes, s)
			}
			return true
		})
	}
	if len(shapes) == 0 {
		t.Fatal("no Linear layer found in the quick-scale models")
	}
	return shapes
}

// fillLinearOperand fills t like fillConvOperand (normal values, ±0,
// 1e-20 scale, NaN and ±Inf) with about one entry in eight replaced by a
// subnormal before the non-finite salt goes in.
func fillLinearOperand(t *tensor.Tensor, rng *tensor.RNG) {
	fillConvOperand(t, rng, 0)
	for i := range t.Data {
		if rng.Intn(8) == 0 {
			t.Data[i] = float32(rng.NormFloat64() * 1e-40)
		}
	}
	nonFinite := []float32{hardwareNaN(), posInf, -posInf}
	for s := 0; s < 3; s++ {
		t.Data[rng.Intn(len(t.Data))] = nonFinite[s]
	}
}

// TestLinearMatchesReference pins Linear to the row-major GEMM loops it
// ran before, bit for bit: y, GradW, GradB and dx, on the six models'
// quick-scale heads, a prime shape and one whose three products all
// cross the GEMMs' parallel threshold at batch 32, at batch 1, 3 and 32.
// x, W and dy mix ±0, subnormals, NaN and ±Inf, so the forward's
// count-every-product and the backward's skip-a-zero-dy contracts are
// both exercised. One layer runs every batch size in turn, so its
// workspaces are retaken at other shapes.
func TestLinearMatchesReference(t *testing.T) {
	shapes := append(quickScaleLinearShapes(t), [2]int{37, 13}, [2]int{130, 70})
	rng := tensor.NewRNG(43)
	for _, s := range shapes {
		in, out := s[0], s[1]
		l := nn.NewLinear("fc", in, out, rng)
		for _, n := range []int{1, 3, 32} {
			t.Run(fmt.Sprintf("%d_to_%d_n%d", in, out, n), func(t *testing.T) {
				x, dy := tensor.New(n, in), tensor.New(n, out)
				for _, op := range []*tensor.Tensor{x, l.W, dy} {
					fillLinearOperand(op, rng)
				}
				rng.FillNormal(l.B, 1)

				wantY := tensor.New(n, out)
				refMatMulTransB(wantY, x, l.W)
				for i := 0; i < n; i++ {
					for j := 0; j < out; j++ {
						wantY.Data[i*out+j] += l.B.Data[j]
					}
				}
				wantGW, wantGB := tensor.New(out, in), tensor.New(out)
				refMatMulTransA(wantGW, dy, x)
				for i := 0; i < n; i++ {
					for j := 0; j < out; j++ {
						wantGB.Data[j] += dy.Data[i*out+j]
					}
				}
				wantDX := tensor.New(n, in)
				refMatMul(wantDX, dy, l.W)

				bitsEqual(t, "y", l.Forward(x, true).Data, wantY.Data)
				l.GradB.Zero()
				bitsEqual(t, "dx", l.Backward(dy).Data, wantDX.Data)
				bitsEqual(t, "GradW", l.GradW.Data, wantGW.Data)
				bitsEqual(t, "GradB", l.GradB.Data, wantGB.Data)
			})
		}
	}
}
