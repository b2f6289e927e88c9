package tensor

// The tile kernels have two bodies: AVX2 assembly on amd64 CPUs that
// have it (tile_amd64.s) and the Go twin in tile.go, which every other
// CPU runs. Both are the same IEEE operation sequence per output element
// — a multiply, then product + accumulator, rounded separately, never
// fused — so which body runs cannot change a bit.
// useAVX2 is the one switch. It is set once, from the CPU's feature bits,
// before any kernel runs; only the kernel tests flip it, to run both
// bodies on one machine.
var useAVX2 = cpuHasAVX2()

// tile4x8 writes the rows×8 output tile dst[r·ldd+c] = Σ_{p<k}
// a[r·lda+p·ak]·b[p·ldb+c] for r < rows ≤ 4, c < 8, counting every
// product (see tile4x8Go). The caller guarantees len(dst) ≥
// (rows−1)·ldd+8, that a covers every a[r·lda+p·ak] and, for k > 0,
// len(b) ≥ (k−1)·ldb+8.
//
//lint:hotpath
func tile4x8(dst []float32, ldd int, a []float32, lda, ak int, b []float32, ldb, k, rows int) {
	if useAVX2 {
		tile4x8AVX2(dst, ldd, a, lda, ak, b, ldb, k, rows)
		return
	}
	tile4x8Go(dst, ldd, a, lda, ak, b, ldb, k, rows, false)
}

// tile4x8Skip is tile4x8 without the products whose b factor is ±0: the
// backward MVMs' zero-skip, with the skipped factor in the b operand.
//
//lint:hotpath
func tile4x8Skip(dst []float32, ldd int, a []float32, lda, ak int, b []float32, ldb, k, rows int) {
	if useAVX2 {
		tile4x8SkipAVX2(dst, ldd, a, lda, ak, b, ldb, k, rows)
		return
	}
	tile4x8Go(dst, ldd, a, lda, ak, b, ldb, k, rows, true)
}
