package tensor

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
// adds the products in ascending p, product first (prod + acc) — the
// operation sequence axpy applies to a pre-zeroed output, so either path
// gives the same bits. With skipZeroB, a product whose b factor is ±0 is
// not added: the chain never holds −0, so this equals adding the +0 the
// assembly's compare-and-mask leaves. The float32 conversion of each
// product forbids the compiler from fusing the multiply and the add (Go
// may emit FMA on arm64 otherwise, which rounds once instead of twice).
// It is what pre-AVX2 CPUs and other architectures run, and the kernel
// tests compare the assembly against it.
//
//lint:hotpath
func tile4x8Go(dst []float32, ldd int, a []float32, lda, ak int, b []float32, ldb, k, rows int, skipZeroB bool) {
	var acc [tileRows][tileCols]float32
	for p := 0; p < k; p++ {
		brow := b[p*ldb : p*ldb+tileCols : p*ldb+tileCols]
		for r := 0; r < rows; r++ {
			v := a[r*lda+p*ak]
			row := &acc[r]
			for c, bv := range brow {
				if skipZeroB && !nonzero(bv) {
					continue
				}
				row[c] = float32(bv*v) + row[c]
			}
		}
	}
	for r := 0; r < rows; r++ {
		copy(dst[r*ldd:r*ldd+tileCols], acc[r][:])
	}
}

// axpyGo computes dst[j] += v·src[j] over len(src) elements; len(dst)
// must be at least len(src). The 8-way unrolling exposes independent
// per-element chains to the pipeline (each dst[j] is its own accumulation
// chain, so the unroll cannot reorder any addition) and the full-width
// reslices eliminate per-element bounds checks. The float32 conversion of
// each product forbids fusing the multiply and the add, keeping every
// result bit-identical to the assembly kernel.
//
//lint:hotpath
func axpyGo(dst, src []float32, v float32) {
	dst = dst[:len(src)]
	n := len(src) &^ 7
	for j := 0; j < n; j += 8 {
		d := dst[j : j+8 : j+8]
		s := src[j : j+8 : j+8]
		d[0] += float32(v * s[0])
		d[1] += float32(v * s[1])
		d[2] += float32(v * s[2])
		d[3] += float32(v * s[3])
		d[4] += float32(v * s[4])
		d[5] += float32(v * s[5])
		d[6] += float32(v * s[6])
		d[7] += float32(v * s[7])
	}
	for j := n; j < len(src); j++ {
		dst[j] += float32(v * src[j])
	}
}
