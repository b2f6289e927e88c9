//go:build !amd64

package tensor

// axpy computes dst[j] += v·src[j] over len(src) elements; len(dst) must be
// at least len(src). The 8-way unrolling exposes independent per-element
// chains to the pipeline (each dst[j] is its own accumulation chain, so the
// unroll cannot reorder any addition) and the full-width reslices eliminate
// per-element bounds checks. The float32 conversion of each product forbids
// fusing the multiply and the add (Go may emit FMA on arm64 otherwise),
// keeping every result bit-identical to the amd64 kernel.
//
//lint:hotpath
func axpy(dst, src []float32, v float32) {
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
