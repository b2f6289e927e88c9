package tensor

import (
	"math"
	"testing"
)

// The blocked kernels must be bit-identical to the naive reference loops
// below for every shape: the repository's determinism invariants promise a
// fixed summation order per shape, and the references implement that order
// (ascending inner index, single accumulation chain per output element,
// exact-zero operands skipped where the shipped kernels skip them).

// naiveMatMulInto is the pre-tiling MatMulInto reference loop.
func naiveMatMulInto(out, a, b *Tensor) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out.Zero()
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 { //lint:allow float-eq reference mirrors the kernel's zero-skip
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j, bv := range brow {
				orow[j] += float32(av * bv)
			}
		}
	}
}

// naiveMatMulTransBInto is the pre-tiling MatMulTransBInto reference loop.
func naiveMatMulTransBInto(out, a, b *Tensor) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s float32
			for p, av := range arow {
				s += float32(av * brow[p])
			}
			orow[j] = s
		}
	}
}

// naiveMatMulTransAInto is the pre-blocking MatMulTransAInto reference loop.
func naiveMatMulTransAInto(out, a, b *Tensor) {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out.Zero()
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
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

// naiveCol2Im is the pre-fast-path Col2Im loop.
func naiveCol2Im(g ConvGeom, dstImage, srcCols []float32) {
	oh, ow := g.OutH(), g.OutW()
	cols := g.ColCols()
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := srcCols[(oy*ow+ox)*cols : (oy*ow+ox+1)*cols]
			si := 0
			for c := 0; c < g.InC; c++ {
				chn := dstImage[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
				for ky := 0; ky < g.K; ky++ {
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						si += g.K
						continue
					}
					base := iy * g.InW
					for kx := 0; kx < g.K; kx++ {
						ix := ox*g.Stride + kx - g.Pad
						if ix >= 0 && ix < g.InW {
							chn[base+ix] += row[si]
						}
						si++
					}
				}
			}
		}
	}
}

// naiveIm2Col is the pre-fast-path Im2Col loop.
func naiveIm2Col(g ConvGeom, dst, src []float32) {
	oh, ow := g.OutH(), g.OutW()
	cols := g.ColCols()
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := dst[(oy*ow+ox)*cols : (oy*ow+ox+1)*cols]
			di := 0
			for c := 0; c < g.InC; c++ {
				chn := src[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
				for ky := 0; ky < g.K; ky++ {
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						for kx := 0; kx < g.K; kx++ {
							row[di] = 0
							di++
						}
						continue
					}
					base := iy * g.InW
					for kx := 0; kx < g.K; kx++ {
						ix := ox*g.Stride + kx - g.Pad
						if ix < 0 || ix >= g.InW {
							row[di] = 0
						} else {
							row[di] = chn[base+ix]
						}
						di++
					}
				}
			}
		}
	}
}

// fillKernelOperand populates t with a value mix that exercises the kernels'
// edge behaviour: positives, negatives, exact zeros (the zero-skip paths),
// and denormal-scale magnitudes whose rounding would expose any change in
// summation order.
func fillKernelOperand(t *Tensor, rng *RNG) {
	for i := range t.Data {
		switch rng.Intn(8) {
		case 0:
			t.Data[i] = 0
		case 1:
			t.Data[i] = float32(math.Copysign(0, -1)) // negative zero
		case 2:
			t.Data[i] = float32(rng.NormFloat64()) * 1e-20
		default:
			t.Data[i] = float32(rng.NormFloat64())
		}
	}
}

// matmulShapes is the property sweep: degenerate (k=0, 1×N, N×1), prime,
// tile-remainder (mrTile±1, transABlock±1), and above-parallel-threshold
// shapes, followed by the tile4x8 edge grid from kernelEdgeShapes.
var matmulShapes = append([]struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{1, 0, 5},   // k = 0: output must be exactly zero
	{3, 0, 0},   // empty output columns
	{1, 13, 17}, // 1×N
	{17, 13, 1}, // N×1
	{2, 3, 5},
	{4, 4, 4},
	{5, 5, 5},   // mrTile remainder 1
	{7, 11, 13}, // primes, remainder 3
	{8, 9, 10},  // transABlock boundary
	{9, 64, 31}, // transABlock remainder
	{23, 29, 31},
	{64, 64, 65}, // just above parallelThreshold: exercises sharding
	{65, 64, 64},
	{130, 70, 66}, // parallel path with row remainder on every shard
}, kernelEdgeShapes()...)

// kernelEdgeShapes crosses output widths around the tile4x8 column tile
// (n = 8q−1, 8q, 8q+1) with row counts around its row tile (m = 3, 4, 5,
// 8) and short inner dimensions (k = 0, 1, and a conv-like 27), so every
// mix of full tiles, remainder columns and remainder rows is swept.
func kernelEdgeShapes() []struct{ m, k, n int } {
	var shapes []struct{ m, k, n int }
	for _, n := range []int{7, 8, 9, 15, 16, 17, 63, 64, 65} {
		for _, m := range []int{3, 4, 5, 8} {
			for _, k := range []int{0, 1, 27} {
				shapes = append(shapes, struct{ m, k, n int }{m, k, n})
			}
		}
	}
	return shapes
}

func bitEqual(t *testing.T, name string, shape []int, got, want []float32) {
	t.Helper()
	for i := range want {
		gb, wb := math.Float32bits(got[i]), math.Float32bits(want[i])
		if gb != wb {
			t.Fatalf("%s shape %v: element %d differs: got %x (%g) want %x (%g)",
				name, shape, i, gb, got[i], wb, want[i])
		}
	}
}

// TestMatMulKernelsBitIdentical sweeps the shape grid comparing every
// blocked kernel against its naive reference bit-for-bit.
func TestMatMulKernelsBitIdentical(t *testing.T) {
	rng := NewRNG(7)
	for _, s := range matmulShapes {
		a := New(s.m, s.k)
		b := New(s.k, s.n)
		fillKernelOperand(a, rng)
		fillKernelOperand(b, rng)

		got, want := New(s.m, s.n), New(s.m, s.n)
		fillKernelOperand(got, rng) // dirty output: kernels must not read it
		MatMulInto(got, a, b)
		naiveMatMulInto(want, a, b)
		bitEqual(t, "MatMulInto", []int{s.m, s.k, s.n}, got.Data, want.Data)

		bt := New(s.n, s.k) // b for the a×bᵀ form
		fillKernelOperand(bt, rng)
		fillKernelOperand(got, rng)
		MatMulTransBInto(got, a, bt)
		naiveMatMulTransBInto(want, a, bt)
		bitEqual(t, "MatMulTransBInto", []int{s.m, s.k, s.n}, got.Data, want.Data)

		at := New(s.k, s.m) // a for the aᵀ×b form
		fillKernelOperand(at, rng)
		fillKernelOperand(got, rng)
		MatMulTransAInto(got, at, b)
		naiveMatMulTransAInto(want, at, b)
		bitEqual(t, "MatMulTransAInto", []int{s.m, s.k, s.n}, got.Data, want.Data)
	}
}

// convGeoms sweeps convolution geometries including pad-dominated edges,
// stride>1, 1×1 kernels, and single-pixel planes.
var convGeoms = []ConvGeom{
	{InC: 1, InH: 1, InW: 1, OutC: 1, K: 1, Stride: 1, Pad: 0},
	{InC: 1, InH: 5, InW: 5, OutC: 2, K: 3, Stride: 1, Pad: 1},
	{InC: 3, InH: 8, InW: 8, OutC: 4, K: 3, Stride: 1, Pad: 1},
	{InC: 2, InH: 7, InW: 11, OutC: 3, K: 3, Stride: 2, Pad: 1},
	{InC: 2, InH: 6, InW: 6, OutC: 2, K: 5, Stride: 1, Pad: 2},
	{InC: 4, InH: 4, InW: 4, OutC: 8, K: 1, Stride: 1, Pad: 0},
	{InC: 1, InH: 3, InW: 9, OutC: 1, K: 3, Stride: 3, Pad: 0},
	{InC: 2, InH: 5, InW: 5, OutC: 2, K: 3, Stride: 1, Pad: 2}, // pad wider than typical
}

// TestIm2ColCol2ImBitIdentical compares the fast-path lowering/scatter
// against the naive per-tap loops bit-for-bit, including the accumulation
// order of overlapping Col2Im taps.
func TestIm2ColCol2ImBitIdentical(t *testing.T) {
	rng := NewRNG(11)
	for _, g := range convGeoms {
		src := make([]float32, g.InC*g.InH*g.InW)
		for i := range src {
			src[i] = float32(rng.NormFloat64())
		}
		got := make([]float32, g.ColRows()*g.ColCols())
		want := make([]float32, len(got))
		for i := range got {
			got[i] = float32(rng.NormFloat64()) // dirty: Im2Col must overwrite fully
		}
		g.Im2Col(got, src)
		naiveIm2Col(g, want, src)
		bitEqual(t, "Im2Col", []int{g.InC, g.InH, g.InW, g.K, g.Stride, g.Pad},
			got, want)

		cols := make([]float32, len(got))
		for i := range cols {
			cols[i] = float32(rng.NormFloat64())
		}
		gotImg := make([]float32, len(src))
		wantImg := make([]float32, len(src))
		g.Col2Im(gotImg, cols)
		naiveCol2Im(g, wantImg, cols)
		bitEqual(t, "Col2Im", []int{g.InC, g.InH, g.InW, g.K, g.Stride, g.Pad},
			gotImg, wantImg)
	}
}

// TestMatMulParallelRace drives all three kernels well above the parallel
// threshold so `go test -race ./internal/tensor` exercises the goroutine
// fan-out, and re-checks determinism against the references at size.
func TestMatMulParallelRace(t *testing.T) {
	rng := NewRNG(13)
	m, k, n := 97, 83, 101 // primes, comfortably above parallelThreshold
	a, b := New(m, k), New(k, n)
	bt, at := New(n, k), New(k, m)
	fillKernelOperand(a, rng)
	fillKernelOperand(b, rng)
	fillKernelOperand(bt, rng)
	fillKernelOperand(at, rng)

	got, want := New(m, n), New(m, n)
	MatMulInto(got, a, b)
	naiveMatMulInto(want, a, b)
	bitEqual(t, "MatMulInto(parallel)", []int{m, k, n}, got.Data, want.Data)

	MatMulTransBInto(got, a, bt)
	naiveMatMulTransBInto(want, a, bt)
	bitEqual(t, "MatMulTransBInto(parallel)", []int{m, k, n}, got.Data, want.Data)

	MatMulTransAInto(got, at, b)
	naiveMatMulTransAInto(want, at, b)
	bitEqual(t, "MatMulTransAInto(parallel)", []int{m, k, n}, got.Data, want.Data)
}

// TestTile4x8MatchesGoTwin compares the tile4x8 kernel with its portable
// twin bit for bit, so the non-amd64 path is checked on amd64 too. The
// operands are fillKernelOperand data (±0, 1e-20 scale) salted with NaN,
// laid out with row strides wider than the tile; the test also checks
// that nothing outside the 4×8 output tile is written.
func TestTile4x8MatchesGoTwin(t *testing.T) {
	rng := NewRNG(17)
	nan := float32(math.NaN())
	for k := 0; k <= 33; k++ {
		for _, ld := range []int{tileCols, 11, 64} {
			lda := k + 3
			a := make([]float32, 3*lda+k)
			b := make([]float32, max(k-1, 0)*ld+tileCols)
			for _, op := range [][]float32{a, b} {
				fillKernelOperand(&Tensor{Shape: []int{len(op)}, Data: op}, rng)
				for i := range op {
					if rng.Intn(64) == 0 {
						op[i] = nan
					}
				}
			}
			got := make([]float32, 3*ld+tileCols+ld)
			want := make([]float32, len(got))
			for i := range got {
				got[i] = float32(i) + 0.5 // sentinel
				want[i] = got[i]
			}
			tile4x8(got, ld, a, lda, b, ld, k)
			tile4x8Go(want, ld, a, lda, b, ld, k)
			bitEqual(t, "tile4x8", []int{k, ld}, got, want)
			for i := range got {
				inTile := i < 3*ld+tileCols && i%ld < tileCols
				if !inTile && math.Float32bits(got[i]) != math.Float32bits(float32(i)+0.5) {
					t.Fatalf("k=%d ld=%d: element %d outside the tile was written", k, ld, i)
				}
			}
		}
	}
}
