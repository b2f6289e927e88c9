package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapeAndVolume(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Rank() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape %v", x.Shape)
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestFromSliceAndAtSet(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if x.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", x.At(1, 2))
	}
	x.Set(42, 0, 1)
	if x.At(0, 1) != 42 {
		t.Fatalf("Set did not store")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched length")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := x.Reshape(4)
	y.Data[0] = 9
	if x.At(0, 0) != 9 {
		t.Fatal("Reshape must share underlying data")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 5
	if x.Data[0] != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestAddSubScaleAXPY(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	y := FromSlice([]float32{10, 20, 30}, 3)
	x.Add(y)
	if x.Data[2] != 33 {
		t.Fatalf("Add: got %v", x.Data)
	}
	x.Sub(y)
	if x.Data[2] != 3 {
		t.Fatalf("Sub: got %v", x.Data)
	}
	x.Scale(2)
	if x.Data[0] != 2 {
		t.Fatalf("Scale: got %v", x.Data)
	}
	x.AXPY(0.5, y)
	if x.Data[1] != 4+10 {
		t.Fatalf("AXPY: got %v", x.Data)
	}
}

func TestSumDotNorms(t *testing.T) {
	x := FromSlice([]float32{3, -4}, 2)
	if !almostEq(x.Sum(), -1, 1e-9) {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if !almostEq(x.L2Norm(), 5, 1e-9) {
		t.Fatalf("L2Norm = %v", x.L2Norm())
	}
	if x.AbsMax() != 4 {
		t.Fatalf("AbsMax = %v", x.AbsMax())
	}
	y := FromSlice([]float32{2, 1}, 2)
	if !almostEq(Dot(x, y), 2, 1e-9) {
		t.Fatalf("Dot = %v", Dot(x, y))
	}
}

func TestArgMaxRow(t *testing.T) {
	x := FromSlice([]float32{0, 5, 2, 9, 1, 3}, 2, 3)
	if x.ArgMaxRow(0) != 1 {
		t.Fatalf("ArgMaxRow(0) = %d", x.ArgMaxRow(0))
	}
	if x.ArgMaxRow(1) != 0 {
		t.Fatalf("ArgMaxRow(1) = %d", x.ArgMaxRow(1))
	}
}

func TestTranspose2D(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Transpose2D()
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatalf("transpose shape %v", y.Shape)
	}
	if y.At(2, 1) != 6 || y.At(0, 1) != 4 {
		t.Fatalf("transpose values wrong: %v", y.Data)
	}
}

// Property: transposing twice is the identity.
func TestTransposeInvolutionProperty(t *testing.T) {
	rng := NewRNG(7)
	f := func(rs, cs uint8) bool {
		r := int(rs%17) + 1
		c := int(cs%23) + 1
		x := New(r, c)
		rng.FillNormal(x, 1)
		y := x.Transpose2D().Transpose2D()
		for i := range x.Data {
			if x.Data[i] != y.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

// Property: the blocked/parallel MatMul matches a naive triple loop.
func TestMatMulMatchesNaiveProperty(t *testing.T) {
	rng := NewRNG(11)
	f := func(ms, ks, ns uint8) bool {
		m := int(ms%13) + 1
		k := int(ks%11) + 1
		n := int(ns%15) + 1
		a, b := New(m, k), New(k, n)
		rng.FillNormal(a, 1)
		rng.FillNormal(b, 1)
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		for i := range got.Data {
			if !almostEq(float64(got.Data[i]), float64(want.Data[i]), 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulLargeParallelPath(t *testing.T) {
	rng := NewRNG(3)
	a, b := New(70, 70), New(70, 70)
	rng.FillNormal(a, 1)
	rng.FillNormal(b, 1)
	got := MatMul(a, b)
	want := naiveMatMul(a, b)
	for i := range got.Data {
		if !almostEq(float64(got.Data[i]), float64(want.Data[i]), 1e-3) {
			t.Fatalf("parallel matmul mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := NewRNG(5)
	a, b := New(9, 6), New(7, 6) // out = a(9×6) · bᵀ(6×7) = 9×7
	rng.FillNormal(a, 1)
	rng.FillNormal(b, 1)
	out := New(9, 7)
	MatMulTransBInto(out, a, b)
	want := naiveMatMul(a, b.Transpose2D())
	for i := range out.Data {
		if !almostEq(float64(out.Data[i]), float64(want.Data[i]), 1e-4) {
			t.Fatalf("MatMulTransB mismatch at %d", i)
		}
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := NewRNG(6)
	a, b := New(8, 5), New(8, 4) // out = aᵀ(5×8) · b(8×4) = 5×4
	rng.FillNormal(a, 1)
	rng.FillNormal(b, 1)
	out := New(5, 4)
	MatMulTransAInto(out, a, b)
	want := naiveMatMul(a.Transpose2D(), b)
	for i := range out.Data {
		if !almostEq(float64(out.Data[i]), float64(want.Data[i]), 1e-4) {
			t.Fatalf("MatMulTransA mismatch at %d", i)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestConvGeomDims(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 8, InW: 8, OutC: 4, K: 3, Stride: 1, Pad: 1}
	if g.OutH() != 8 || g.OutW() != 8 {
		t.Fatalf("same-pad conv dims: %d×%d", g.OutH(), g.OutW())
	}
	g2 := ConvGeom{InC: 1, InH: 7, InW: 7, K: 3, Stride: 2, Pad: 0}
	if g2.OutH() != 3 {
		t.Fatalf("strided dims: %d", g2.OutH())
	}
}

// Im2Col correctness: convolution via im2col+matmul must equal a direct
// sliding-window convolution.
func TestIm2ColConvMatchesDirect(t *testing.T) {
	rng := NewRNG(13)
	g := ConvGeom{InC: 2, InH: 6, InW: 5, OutC: 3, K: 3, Stride: 1, Pad: 1}
	img := New(g.InC, g.InH, g.InW)
	w := New(g.OutC, g.InC, g.K, g.K)
	rng.FillNormal(img, 1)
	rng.FillNormal(w, 1)

	cols := New(g.ColRows(), g.ColCols())
	g.Im2Col(cols.Data, img.Data)
	wm := w.Reshape(g.OutC, g.ColCols())
	out := New(g.ColRows(), g.OutC)
	MatMulTransBInto(out, cols, wm)

	oh, ow := g.OutH(), g.OutW()
	for oc := 0; oc < g.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var want float32
				for c := 0; c < g.InC; c++ {
					for ky := 0; ky < g.K; ky++ {
						for kx := 0; kx < g.K; kx++ {
							iy, ix := oy*g.Stride+ky-g.Pad, ox*g.Stride+kx-g.Pad
							if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
								continue
							}
							want += img.At(c, iy, ix) * w.At(oc, c, ky, kx)
						}
					}
				}
				got := out.At(oy*ow+ox, oc)
				if !almostEq(float64(got), float64(want), 1e-4) {
					t.Fatalf("conv mismatch at oc=%d oy=%d ox=%d: %v vs %v", oc, oy, ox, got, want)
				}
			}
		}
	}
}

// Property: Col2Im is the adjoint of Im2Col — for any image x and patch
// matrix y: <Im2Col(x), y> == <x, Col2Im(y)>.
func TestCol2ImAdjointProperty(t *testing.T) {
	rng := NewRNG(17)
	f := func(hs, ws, ks uint8) bool {
		h := int(hs%6) + 3
		w := int(ws%6) + 3
		k := int(ks%2)*2 + 1 // 1 or 3
		g := ConvGeom{InC: 2, InH: h, InW: w, K: k, Stride: 1, Pad: k / 2}
		x := New(g.InC, h, w)
		rng.FillNormal(x, 1)
		ax := New(g.ColRows(), g.ColCols())
		g.Im2Col(ax.Data, x.Data)
		y := New(g.ColRows(), g.ColCols())
		rng.FillNormal(y, 1)
		aty := New(g.InC, h, w)
		g.Col2Im(aty.Data, y.Data)
		return almostEq(Dot(ax, y), Dot(x, aty), 1e-2*(1+math.Abs(Dot(ax, y))))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(100)
	same := true
	a2 := NewRNG(99)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different streams")
	}
}

func TestRNGFloat64Bounds(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(2)
	n := 50000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(4)
	p := r.Perm(257)
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			t.Fatalf("not a permutation: %v", v)
		}
		seen[v] = true
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(8)
	counts := make([]int, 5)
	for i := 0; i < 5000; i++ {
		counts[r.Intn(5)]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("Intn badly skewed at %d: %d", i, c)
		}
	}
}
