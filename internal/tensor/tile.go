package tensor

// tileRows and tileCols are the output tile of the tile4x8 micro-kernel.
const (
	tileRows = 4
	tileCols = 8
)

// tile4x8Go is the portable twin of the tile4x8 micro-kernel: it writes
// the 4×8 output tile
//
//	dst[r·ldd+c] = Σ_{p<k} a[r·lda+p]·b[p·ldb+c]   (r < 4, c < 8)
//
// with one accumulation chain per output element that starts at +0 and
// adds the products in ascending p, product first (prod + acc) — the
// operation sequence axpy applies to a pre-zeroed output, so either path
// gives the same bits. The float32 conversion of each product forbids the
// compiler from fusing the multiply and the add (Go may emit FMA on
// arm64 otherwise, which rounds once instead of twice). It is compiled on
// every architecture so the kernel tests can compare the assembly tile
// against it on amd64 too.
//
//lint:hotpath
func tile4x8Go(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, k int) {
	var acc [tileRows][tileCols]float32
	for p := 0; p < k; p++ {
		brow := b[p*ldb : p*ldb+tileCols : p*ldb+tileCols]
		for r := range acc {
			v := a[r*lda+p]
			row := &acc[r]
			for c, bv := range brow {
				row[c] = float32(bv*v) + row[c]
			}
		}
	}
	for r := range acc {
		copy(dst[r*ldd:r*ldd+tileCols], acc[r][:])
	}
}
