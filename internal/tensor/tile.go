package tensor

import "math"

// tileRows and tileCols are the output tile of the tile4x8 micro-kernels.
const (
	tileRows = 4
	tileCols = 8
)

// PadCols rounds a GEMM output width up to a whole number of 8-column
// tiles. A caller that lays its b operand and output out with this row
// stride, padding zero-filled, runs every column through the register
// kernels; the padding columns' results are to be ignored.
//
//lint:hotpath
func PadCols(n int) int { return (n + tileCols - 1) &^ (tileCols - 1) }

// tile4x8Go is the portable twin of the tile4x8 micro-kernel: it writes
// the rows×8 output tile (rows ≤ 4)
//
//	dst[r·ldd+c] = Σ_{p<k} a[r·lda+p·ak]·b[p·ldb+c]   (r < rows, c < 8)
//
// with one accumulation chain per output element that starts at +0 and
// adds the products in ascending p, product first (prod + acc), the
// product b·a and the sum each rounded on their own. With skipZeroB, a product whose b factor is ±0 is
// not added. The chain never holds −0, so adding a ±0 product leaves it
// unchanged: skipping only matters when the a factor is ±Inf or NaN
// (0·Inf is NaN), and only then does this twin mask the products — to the
// +0 the assembly's compare-and-mask leaves. The float32 conversion of
// each product forbids the compiler from fusing the multiply and the add
// (Go may emit FMA on arm64 otherwise, which rounds once instead of
// twice). It is what pre-AVX2 CPUs and other architectures run, and the
// kernel tests compare the assembly against it. It goes one output row at
// a time, so that the row's eight chains stay in registers across the
// whole k loop.
//
//lint:hotpath
func tile4x8Go(dst []float32, ldd int, a []float32, lda, ak int, b []float32, ldb, k, rows int, skipZeroB bool) {
	for r := 0; r < rows; r++ {
		var c0, c1, c2, c3, c4, c5, c6, c7 float32
		for p, ai, bi := 0, r*lda, 0; p < k; p, ai, bi = p+1, ai+ak, bi+ldb {
			v := a[ai]
			bp := b[bi : bi+tileCols : bi+tileCols]
			if skipZeroB && math.Float32bits(v)&expMask == expMask {
				c0 = skippedProduct(bp[0], v) + c0
				c1 = skippedProduct(bp[1], v) + c1
				c2 = skippedProduct(bp[2], v) + c2
				c3 = skippedProduct(bp[3], v) + c3
				c4 = skippedProduct(bp[4], v) + c4
				c5 = skippedProduct(bp[5], v) + c5
				c6 = skippedProduct(bp[6], v) + c6
				c7 = skippedProduct(bp[7], v) + c7
				continue
			}
			c0 = float32(bp[0]*v) + c0
			c1 = float32(bp[1]*v) + c1
			c2 = float32(bp[2]*v) + c2
			c3 = float32(bp[3]*v) + c3
			c4 = float32(bp[4]*v) + c4
			c5 = float32(bp[5]*v) + c5
			c6 = float32(bp[6]*v) + c6
			c7 = float32(bp[7]*v) + c7
		}
		d := dst[r*ldd : r*ldd+tileCols : r*ldd+tileCols]
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = c0, c1, c2, c3, c4, c5, c6, c7
	}
}

// expMask selects a float32's exponent bits; all set means ±Inf or NaN.
const expMask = 0x7f800000

// skippedProduct returns bv·v rounded to float32, or +0 when bv is ±0.
//
//lint:hotpath
func skippedProduct(bv, v float32) float32 {
	if !nonzero(bv) {
		return 0
	}
	return float32(bv * v)
}
