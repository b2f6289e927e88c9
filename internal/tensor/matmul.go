package tensor

// Every GEMM below funnels through gemm, which runs each 4×8 output tile
// through the tile4x8 register micro-kernels (tile.go, kernels.go): one
// pass over the streamed b operand computes four output rows instead of
// one, dividing the memory traffic on b by four. MatMulDenseInto counts
// every product (every layer's forward); MatMulSkipBInto and
// MatMulTransASkipBInto leave out the products whose b factor is ±0 (the
// backward's zero-skip on dY). All kernels work on distinct output
// elements only. The tiling is chosen so
// that it can never change results: it only reorders *which elements* are
// in flight, while the additions into any single output element stay in
// ascending inner-index order with a single accumulation chain from +0,
// exactly like the naive reference loops (kernels_test.go proves
// bit-identity over a shape sweep). Tile sizes are compile-time constants
// — never derived from GOMAXPROCS or the CPU — so the summation order per
// shape is fixed on every machine.
//
// The row loop lives in a named function (not a closure) so the serial
// path — every GEMM below parallelThreshold — allocates nothing; only the
// parallel branch builds a closure for the goroutine fan-out.

// nonzero reports whether a kernel operand is exactly zero. Skipping an
// exact-zero multiplier cannot change any sum, but it must be applied
// consistently in blocked and reference kernels for bit-identity.
//
//lint:hotpath
func nonzero(v float32) bool {
	return v != 0 //lint:allow float-eq zero-skip fast path: skipping an exact-zero operand cannot change the sum
}

// tileRowsGEMM writes out rows [r0, r1) of A·b, where A(i, p) =
// ad[i·lda+p·ak] and b is k×n row-major. Every 8-column block of a row
// group goes through a register tile (tile4x8, or tile4x8Skip with
// skipZeroB); the n mod 8 remainder columns take a scalar loop with the
// same per-element sequence. Each output element is one chain from +0 in
// ascending p, product first; with skipZeroB the products whose b factor
// is ±0 are left out. out rows are fully overwritten.
//
//lint:hotpath
func tileRowsGEMM(od, ad []float32, lda, ak int, bd []float32, k, n, r0, r1 int, skipZeroB bool) {
	nt := n &^ (tileCols - 1) // columns covered by full tiles
	for i := r0; i < r1; i += tileRows {
		rows := min(tileRows, r1-i)
		var ai []float32 // a from row i on; empty when k = 0
		if k > 0 {
			ai = ad[i*lda:]
		}
		for j := 0; j < nt; j += tileCols {
			o := od[i*n+j : (i+rows-1)*n+j+tileCols]
			var b []float32 // b from column j on; empty when k = 0
			if k > 0 {
				b = bd[j : (k-1)*n+j+tileCols]
			}
			if skipZeroB {
				tile4x8Skip(o, n, ai, lda, ak, b, n, k, rows)
			} else {
				tile4x8(o, n, ai, lda, ak, b, n, k, rows)
			}
		}
		for r := i; r < i+rows; r++ {
			for j := nt; j < n; j++ {
				var s float32
				for p := 0; p < k; p++ {
					bv := bd[p*n+j]
					if skipZeroB && !nonzero(bv) {
						continue
					}
					s = float32(bv*ad[r*lda+p*ak]) + s
				}
				od[r*n+j] = s
			}
		}
	}
}

// gemm is the one entry to tileRowsGEMM for an m-row output, sharding the
// rows across goroutines above parallelThreshold (rows are independent,
// so sharding cannot change results).
//
//lint:hotpath
func gemm(od, ad []float32, lda, ak int, bd []float32, m, k, n int, skipZeroB bool) {
	if serialRows(m, m*n*k) {
		tileRowsGEMM(od, ad, lda, ak, bd, k, n, 0, m, skipZeroB)
		return
	}
	//lint:allow hotpath-alloc parallel branch only: the closure fan-out runs above parallelThreshold, the serial hot path allocates nothing
	parallelFor(m, func(r0, r1 int) {
		tileRowsGEMM(od, ad, lda, ak, bd, k, n, r0, r1, skipZeroB)
	})
}

// matmulDims checks the operands of out = op(a)·op(b), where op
// transposes a when transA and b when transB, and returns the product's
// (m, k, n). It panics unless all three are rank-2, the inner dimensions
// match and out is m×n.
//
//lint:hotpath
func matmulDims(op string, out, a, b *Tensor, transA, transB bool) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 || out.Rank() != 2 {
		panic("tensor: " + op + " requires rank-2 tensors")
	}
	m, k = a.Shape[0], a.Shape[1]
	if transA {
		m, k = k, m
	}
	k2, n := b.Shape[0], b.Shape[1]
	if transB {
		k2, n = n, k2
	}
	if k != k2 {
		panic("tensor: " + op + " inner dimension mismatch")
	}
	if out.Shape[0] != m || out.Shape[1] != n {
		panic("tensor: " + op + " output shape mismatch")
	}
	return m, k, n
}

// MatMulDenseInto computes out = a × b (a m×k, b k×n) counting every
// product: no zero-skip, so a ±0 factor against a NaN or ±Inf still
// yields NaN, as in the dot-product reference. It is every layer's
// forward: conv's out(OutC×N·R) = Wf·cols and Linear's y = x·Wfᵀ on the
// transposed weights. b is already k×n row-major, so the register tiles
// stream it directly. A caller that pads n to PadCols runs every column
// through the tiles.
//
//lint:hotpath
func MatMulDenseInto(out, a, b *Tensor) {
	m, k, n := matmulDims("MatMulDenseInto", out, a, b, false, false)
	gemm(out.Data, a.Data, k, 1, b.Data, m, k, n, false)
}

// MatMulSkipBInto computes out = a × b (a m×k, b k×n), leaving out every
// product whose b factor is ±0. It is the conv weight gradient,
// dWᵀ = cols·dY, with the zero-skip on dY.
//
//lint:hotpath
func MatMulSkipBInto(out, a, b *Tensor) {
	m, k, n := matmulDims("MatMulSkipBInto", out, a, b, false, false)
	gemm(out.Data, a.Data, k, 1, b.Data, m, k, n, true)
}

// MatMulTransASkipBInto computes out = aᵀ × b (a k×m, b k×n), leaving out
// every product whose b factor is ±0. It is the backward MVM on the
// transposed weight copy, with the zero-skip on dY: conv's dcols = Wbᵀ·dY
// and Linear's dxᵀ = Wbᵀ·dyᵀ, and also Linear's weight gradient,
// dWᵀ = xᵀ·dy.
//
//lint:hotpath
func MatMulTransASkipBInto(out, a, b *Tensor) {
	m, k, n := matmulDims("MatMulTransASkipBInto", out, a, b, true, false)
	gemm(out.Data, a.Data, 1, m, b.Data, m, k, n, true)
}
