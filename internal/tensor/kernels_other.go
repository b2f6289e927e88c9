//go:build !amd64

package tensor

// Off amd64 there is no assembly: useAVX2 stays false and the AVX2
// entry points below are never reached; they forward to the Go twins so
// that the dispatch in kernels.go compiles on every architecture.

func cpuHasAVX2() bool { return false }

//lint:hotpath
func tile4x8AVX2(dst []float32, ldd int, a []float32, lda, ak int, b []float32, ldb, k, rows int) {
	tile4x8Go(dst, ldd, a, lda, ak, b, ldb, k, rows, false)
}

//lint:hotpath
func tile4x8SkipAVX2(dst []float32, ldd int, a []float32, lda, ak int, b []float32, ldb, k, rows int) {
	tile4x8Go(dst, ldd, a, lda, ak, b, ldb, k, rows, true)
}
