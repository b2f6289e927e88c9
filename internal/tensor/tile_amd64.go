package tensor

// tile4x8 writes the 4×8 output tile dst[r·ldd+c] = Σ_{p<k} a[r·lda+p]·
// b[p·ldb+c] for r < 4, c < 8. Implemented in tile_amd64.s with baseline
// SSE2: the whole tile stays in eight XMM accumulators across the k loop,
// and every lane repeats tile4x8Go's operation sequence (b·a, then
// prod + acc from +0 in ascending p), so the two are bit-identical. The
// caller guarantees len(dst) ≥ 3·ldd+8, len(a) ≥ 3·lda+k and, for k > 0,
// len(b) ≥ (k−1)·ldb+8.
//
//lint:hotpath vector kernel, asm body
//go:noescape
func tile4x8(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, k int)
