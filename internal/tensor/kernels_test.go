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

// naiveDenseInto is the dot-product reference of MatMulDenseInto: every
// product counted, one chain from +0 in ascending p.
func naiveDenseInto(out, a, b *Tensor) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += float32(a.Data[i*k+p] * b.Data[p*n+j])
			}
			out.Data[i*n+j] = s
		}
	}
}

// naiveSkipBInto is the reference of MatMulSkipBInto (transA false) and
// MatMulTransASkipBInto (transA true): the products whose b factor is ±0
// are left out of the chain.
func naiveSkipBInto(out, a, b *Tensor, transA bool) {
	k, n := b.Shape[0], b.Shape[1]
	m := out.Shape[0]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				bv := b.Data[p*n+j]
				if !nonzero(bv) {
					continue
				}
				av := a.Data[i*k+p]
				if transA {
					av = a.Data[p*m+i]
				}
				s += float32(av * bv)
			}
			out.Data[i*n+j] = s
		}
	}
}

// naiveCol2Im is the per-pixel reference of Col2Im: output pixels in
// ascending (oy, ox), and each pixel's taps in (c, ky, kx) order, so
// every input pixel receives its additions in ascending (oy, ox) — the
// order the conv results are pinned to.
func naiveCol2Im(g ConvGeom, dstImage, srcCols []float32, ld int) {
	oh, ow := g.OutH(), g.OutW()
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := 0
			for c := 0; c < g.InC; c++ {
				chn := dstImage[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
				for ky := 0; ky < g.K; ky++ {
					for kx := 0; kx < g.K; kx++ {
						iy := oy*g.Stride + ky - g.Pad
						ix := ox*g.Stride + kx - g.Pad
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							chn[iy*g.InW+ix] += srcCols[row*ld+oy*ow+ox]
						}
						row++
					}
				}
			}
		}
	}
}

// naiveIm2Col is the per-tap reference of Im2Col.
func naiveIm2Col(g ConvGeom, dst, src []float32, ld int) {
	oh, ow := g.OutH(), g.OutW()
	row := 0
	for c := 0; c < g.InC; c++ {
		chn := src[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for ky := 0; ky < g.K; ky++ {
			for kx := 0; kx < g.K; kx++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy := oy*g.Stride + ky - g.Pad
						ix := ox*g.Stride + kx - g.Pad
						var v float32
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							v = chn[iy*g.InW+ix]
						}
						dst[row*ld+oy*ow+ox] = v
					}
				}
				row++
			}
		}
	}
}

// forEachKernelPath runs fn once per body the vector kernels can take on
// this machine: the AVX2 assembly where the CPU has it, then the Go twins
// that pre-AVX2 CPUs and other architectures run (useAVX2 forced off).
func forEachKernelPath(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	if saved {
		t.Run("avx2", fn)
	}
	useAVX2 = false
	t.Run("go", fn)
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
// row-tile remainder (m = 5, 7, 9, 17 leave 1, 3, 1, 1 rows after whole
// 4-row tiles), and above-parallel-threshold shapes, followed by the
// tile4x8 edge grid from kernelEdgeShapes.
var matmulShapes = append([]struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{1, 0, 5},   // k = 0: output must be exactly zero
	{3, 0, 0},   // empty output columns
	{1, 13, 17}, // 1×N
	{17, 13, 1}, // N×1
	{2, 3, 5},
	{4, 4, 4},
	{5, 5, 5},   // row remainder 1
	{7, 11, 13}, // primes, row remainder 3
	{8, 9, 10},  // whole row tiles, column remainder 2
	{9, 64, 31}, // row remainder 1, column remainder 7
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
// blocked kernel against its naive reference bit-for-bit, on both kernel
// bodies.
func TestMatMulKernelsBitIdentical(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := NewRNG(7)
		for _, s := range matmulShapes {
			checkMatMulKernels(t, rng, s.m, s.k, s.n)
		}
	})
}

// checkMatMulKernels compares every GEMM kernel against its reference on
// one m×k×n shape with fillKernelOperand operands salted with NaN and ±Inf.
func checkMatMulKernels(t *testing.T, rng *RNG, m, k, n int) {
	t.Helper()
	shape := []int{m, k, n}
	a, b := New(m, k), New(k, n)
	at := New(k, m) // a for aᵀ×b
	for _, op := range []*Tensor{a, b, at} {
		fillKernelOperand(op, rng)
		saltNonFinite(op, rng)
	}
	got, want := New(m, n), New(m, n)
	for _, kc := range []struct {
		name      string
		run, want func()
	}{
		{"MatMulDenseInto", func() { MatMulDenseInto(got, a, b) }, func() { naiveDenseInto(want, a, b) }},
		{"MatMulSkipBInto", func() { MatMulSkipBInto(got, a, b) }, func() { naiveSkipBInto(want, a, b, false) }},
		{"MatMulTransASkipBInto", func() { MatMulTransASkipBInto(got, at, b) }, func() { naiveSkipBInto(want, at, b, true) }},
	} {
		fillKernelOperand(got, rng) // dirty output: kernels must not read it
		kc.run()
		kc.want()
		bitEqual(t, kc.name, shape, got.Data, want.Data)
	}
}

// posInf is a variable so that hardwareNaN's subtraction runs at run time.
var posInf = float32(math.Inf(1))

// hardwareNaN returns the NaN the FPU itself produces (Inf − Inf), the
// one 0·Inf yields mid-chain. Go does not define which of two NaN
// operands' bits an operation keeps, and kernels and references may pick
// differently; salting with this NaN keeps every NaN alike, so results
// can still be compared bit for bit.
func hardwareNaN() float32 { return posInf - posInf }

// saltNonFinite overwrites about one entry in 64 with NaN, +Inf or −Inf,
// so the kernels' zero-skips meet the operands where skipping a ±0
// factor changes the result (0·Inf and 0·NaN are NaN).
func saltNonFinite(t *Tensor, rng *RNG) {
	nonFinite := []float32{hardwareNaN(), float32(math.Inf(1)), float32(math.Inf(-1))}
	for i := range t.Data {
		if rng.Intn(64) == 0 {
			t.Data[i] = nonFinite[rng.Intn(len(nonFinite))]
		}
	}
}

// convGeoms sweeps convolution geometries including pad-dominated edges,
// stride>1 (with rows and columns of the padded plane that no tap
// reaches), 1×1 kernels, single-pixel planes, a pad wider than the
// kernel's reach, and, at the tests' batch of three, a patch-matrix row
// longer than gatherChunk.
var convGeoms = []ConvGeom{
	{InC: 2, InH: 9, InW: 17, OutC: 3, K: 3, Stride: 2, Pad: 1},
	{InC: 1, InH: 4, InW: 12, OutC: 2, K: 5, Stride: 1, Pad: 2},
	{InC: 1, InH: 70, InW: 4, OutC: 1, K: 3, Stride: 1, Pad: 1},
	{InC: 1, InH: 1, InW: 1, OutC: 1, K: 1, Stride: 1, Pad: 0},
	{InC: 1, InH: 5, InW: 5, OutC: 2, K: 3, Stride: 1, Pad: 1},
	{InC: 3, InH: 8, InW: 8, OutC: 4, K: 3, Stride: 1, Pad: 1},
	{InC: 2, InH: 7, InW: 11, OutC: 3, K: 3, Stride: 2, Pad: 1},
	{InC: 2, InH: 6, InW: 6, OutC: 2, K: 5, Stride: 1, Pad: 2},
	{InC: 4, InH: 4, InW: 4, OutC: 8, K: 1, Stride: 1, Pad: 0},
	{InC: 1, InH: 3, InW: 9, OutC: 1, K: 3, Stride: 3, Pad: 0},
	{InC: 2, InH: 5, InW: 5, OutC: 2, K: 3, Stride: 1, Pad: 2},   // pad wider than typical
	{InC: 2, InH: 1, InW: 1, OutC: 2, K: 3, Stride: 1, Pad: 1},   // only the centre tap is real
	{InC: 2, InH: 40, InW: 37, OutC: 2, K: 3, Stride: 1, Pad: 1}, // a gatherChunk boundary inside image 2
}

// planeScratch returns scratch for Im2Col's and Col2Im's padded planes of
// n images, filled with NaN: neither may depend on what the scratch held.
func planeScratch(g ConvGeom, n int) []float32 {
	plane := make([]float32, n*(g.InH+2*g.Pad)*(g.InW+2*g.Pad))
	for i := range plane {
		plane[i] = hardwareNaN()
	}
	return plane
}

// TestIm2ColCol2ImBitIdentical compares the padded-plane lowering and
// scatter against the per-tap and per-pixel loops bit-for-bit, including
// the accumulation order of overlapping Col2Im taps. Each geometry lowers
// a batch of three images into one matrix whose row stride is padded to
// whole tiles; operands carry ±0, 1e-20-scale values, NaN and ±Inf.
func TestIm2ColCol2ImBitIdentical(t *testing.T) {
	rng := NewRNG(11)
	const n = 3
	for _, g := range convGeoms {
		shape := []int{g.InC, g.InH, g.InW, g.K, g.Stride, g.Pad}
		r, imgLen := g.ColCols(), g.InC*g.InH*g.InW
		ld := PadCols(n * r)
		src := &Tensor{Shape: []int{n * imgLen}, Data: make([]float32, n*imgLen)}
		fillKernelOperand(src, rng)
		saltNonFinite(src, rng)
		got := make([]float32, g.ColRows()*ld)
		want := make([]float32, len(got))
		for i := range got {
			got[i] = float32(rng.NormFloat64()) // dirty: Im2Col must overwrite its columns
			want[i] = got[i]
		}
		g.Im2Col(got, src.Data, planeScratch(g, n), n, ld)
		for i := 0; i < n; i++ {
			naiveIm2Col(g, want[i*r:], src.Data[i*imgLen:(i+1)*imgLen], ld)
		}
		bitEqual(t, "Im2Col", shape, got, want)

		cols := &Tensor{Shape: []int{len(got)}, Data: make([]float32, len(got))}
		fillKernelOperand(cols, rng)
		saltNonFinite(cols, rng)
		gotImg := make([]float32, len(src.Data))
		wantImg := make([]float32, len(src.Data))
		g.Col2Im(gotImg, cols.Data, planeScratch(g, n), n, ld)
		for i := 0; i < n; i++ {
			naiveCol2Im(g, wantImg[i*imgLen:(i+1)*imgLen], cols.Data[i*r:], ld)
		}
		bitEqual(t, "Col2Im", shape, gotImg, wantImg)

		// Onto images that already hold values, each pixel gains its sum.
		for i := range gotImg {
			base := float32(rng.NormFloat64())
			gotImg[i], wantImg[i] = base, base+wantImg[i]
		}
		g.Col2Im(gotImg, cols.Data, planeScratch(g, n), n, ld)
		bitEqual(t, "Col2Im onto values", shape, gotImg, wantImg)
	}
}

// TestMatMulParallelRace drives every kernel well above the parallel
// threshold so `go test -race ./internal/tensor` exercises the goroutine
// fan-out, and re-checks determinism against the references at size.
func TestMatMulParallelRace(t *testing.T) {
	checkMatMulKernels(t, NewRNG(13), 97, 83, 101) // primes, comfortably above parallelThreshold
}

// TestTile4x8MatchesGoTwin compares both tile kernels with their portable
// twin bit for bit, on both kernel bodies. The operands are
// fillKernelOperand data (±0, 1e-20 scale) salted with NaN and ±Inf,
// laid out with row strides wider than the tile and with a read both
// row-major and transposed; every row count 1–4 is swept. The test also
// checks that nothing outside the rows×8 output tile is written.
func TestTile4x8MatchesGoTwin(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := NewRNG(17)
		for k := 0; k <= 33; k++ {
			for _, ld := range []int{tileCols, 11, 64} {
				for rows := 1; rows <= tileRows; rows++ {
					for _, trans := range []bool{false, true} {
						checkTile(t, rng, k, ld, rows, trans)
					}
				}
			}
		}
	})
}

func checkTile(t *testing.T, rng *RNG, k, ld, rows int, trans bool) {
	t.Helper()
	lda, ak := k+3, 1 // a row-major, rows padded past k
	if trans {
		lda, ak = 1, tileRows+2 // a stored transposed: a[r][p] at p·ak+r
	}
	a := make([]float32, max(3*lda+k*ak, 1))
	b := make([]float32, max(k-1, 0)*ld+tileCols)
	for _, op := range [][]float32{a, b} {
		t := &Tensor{Shape: []int{len(op)}, Data: op}
		fillKernelOperand(t, rng)
		saltNonFinite(t, rng)
	}
	shape := []int{k, ld, rows, lda, ak}
	for _, skip := range []bool{false, true} {
		got := make([]float32, 3*ld+tileCols+ld)
		want := make([]float32, len(got))
		for i := range got {
			got[i] = float32(i) + 0.5 // sentinel
			want[i] = got[i]
		}
		if skip {
			tile4x8Skip(got, ld, a, lda, ak, b, ld, k, rows)
		} else {
			tile4x8(got, ld, a, lda, ak, b, ld, k, rows)
		}
		tile4x8Go(want, ld, a, lda, ak, b, ld, k, rows, skip)
		bitEqual(t, "tile4x8", shape, got, want)
		for i := range got {
			inTile := i < (rows-1)*ld+tileCols && i%ld < tileCols
			if !inTile && math.Float32bits(got[i]) != math.Float32bits(float32(i)+0.5) {
				t.Fatalf("shape %v skip=%v: element %d outside the tile was written", shape, skip, i)
			}
		}
	}
}
