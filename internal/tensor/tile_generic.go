//go:build !amd64

package tensor

// tile4x8 writes one 4×8 output tile of a GEMM; see tile4x8Go, which it
// is on every architecture without an assembly kernel.
//
//lint:hotpath
func tile4x8(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, k int) {
	tile4x8Go(dst, ldd, a, lda, b, ldb, k)
}
