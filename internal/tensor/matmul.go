package tensor

import "sync"

// The GEMM kernels below are register-tiled: each pass over the streamed
// operand computes a small compile-time-constant tile of output rows
// instead of one, which divides the memory traffic on the streamed matrix
// by the tile height — the dominant cost once the operand no longer fits
// in cache. MatMulInto and MatMulTransAInto (the linear layer's backward)
// funnel their inner loops through the vector axpy kernel. The others —
// MatMulTransBInto and the three conv GEMMs — run every 4×8 output tile
// through the tile4x8 register micro-kernels (tile.go, kernels.go). All
// kernels work on distinct output elements only. The tiling is chosen so
// that it can never change results: it only reorders *which elements* are
// in flight, while the additions into any single output element stay in
// ascending inner-index order with a single accumulation chain, exactly
// like the naive reference loops (kernels_test.go proves bit-identity over
// a shape sweep). Tile sizes are compile-time constants — never derived
// from GOMAXPROCS or the CPU — so the summation order per shape is fixed
// on every machine.
//
// The row loops live in named functions (not closures) so the serial path —
// every GEMM below parallelThreshold — allocates nothing; only the parallel
// branch builds a closure for the goroutine fan-out.
const (
	// mrTile is the output-row tile of MatMulInto: four rows of a share
	// each streamed row of b.
	mrTile = 4
	// transABlock is the output-row block of MatMulTransAInto: the block
	// stays cache-resident across the full k-sweep instead of re-streaming
	// the whole output matrix once per inner index.
	transABlock = 8
)

// nonzero reports whether a kernel operand is exactly zero. Skipping an
// exact-zero multiplier cannot change any sum, but it must be applied
// consistently in blocked and reference kernels for bit-identity.
//
//lint:hotpath
func nonzero(v float32) bool {
	return v != 0 //lint:allow float-eq zero-skip fast path: skipping an exact-zero operand cannot change the sum
}

// MatMul returns a × b for 2-D tensors (m×k)·(k×n) → (m×n).
func MatMul(a, b *Tensor) *Tensor {
	out := New(a.Shape[0], b.Shape[1])
	MatMulInto(out, a, b)
	return out
}

// matmulRows accumulates out rows [r0, r1) of the (m×k)·(k×n) product: an
// i-k-j loop register-tiled over mrTile rows of a, so each streamed row of b
// is applied to four output rows per load. Rows of od must be pre-zeroed.
//
//lint:hotpath
func matmulRows(od, ad, bd []float32, k, n, r0, r1 int) {
	i := r0
	for ; i+mrTile <= r1; i += mrTile {
		a0 := ad[i*k : i*k+k]
		a1 := ad[(i+1)*k : (i+1)*k+k]
		a2 := ad[(i+2)*k : (i+2)*k+k]
		a3 := ad[(i+3)*k : (i+3)*k+k]
		o0 := od[i*n : i*n+n]
		o1 := od[(i+1)*n : (i+1)*n+n]
		o2 := od[(i+2)*n : (i+2)*n+n]
		o3 := od[(i+3)*n : (i+3)*n+n]
		for p := 0; p < k; p++ {
			brow := bd[p*n : p*n+n]
			if v := a0[p]; nonzero(v) {
				axpy(o0, brow, v)
			}
			if v := a1[p]; nonzero(v) {
				axpy(o1, brow, v)
			}
			if v := a2[p]; nonzero(v) {
				axpy(o2, brow, v)
			}
			if v := a3[p]; nonzero(v) {
				axpy(o3, brow, v)
			}
		}
	}
	for ; i < r1; i++ {
		arow := ad[i*k : i*k+k]
		orow := od[i*n : i*n+n]
		for p := 0; p < k; p++ {
			if v := arow[p]; nonzero(v) {
				axpy(orow, bd[p*n:p*n+n], v)
			}
		}
	}
}

// MatMulInto computes out = a × b, reusing out's storage. out must be m×n.
// Large products are sharded across GOMAXPROCS goroutines by row blocks
// (row results are independent, so sharding cannot change results).
//
//lint:hotpath
func MatMulInto(out, a, b *Tensor) {
	m, k, n := matmulDims("MatMulInto", out, a, b, false, false)
	out.Zero()
	ad, bd, od := a.Data, b.Data, out.Data
	if serialRows(m, m*n*k) {
		matmulRows(od, ad, bd, k, n, 0, m)
		return
	}
	//lint:allow hotpath-alloc parallel branch only: the closure fan-out runs above parallelThreshold, the serial hot path allocates nothing
	parallelFor(m, m*n*k, func(r0, r1 int) {
		matmulRows(od, ad, bd, k, n, r0, r1)
	})
}

// transScratch pools the transposed-operand buffers of MatMulTransBInto.
// Pooled buffers are fully overwritten before use, so reuse cannot affect
// results; the pool only keeps the steady state allocation-free under
// concurrent callers (distributed workers run independent cells in-process).
var transScratch = sync.Pool{New: func() any { return new([]float32) }}

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
	parallelFor(m, m*n*k, func(r0, r1 int) {
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
// product: no zero-skip, unlike MatMulInto, so a ±0 factor against a NaN
// or ±Inf still yields NaN, as in the dot-product reference. It is the
// conv forward, out(OutC×N·R) = Wf·cols: b is already k×n row-major, so
// the register tiles stream it directly. A caller that pads n to PadCols
// runs every column through the tiles.
//
//lint:hotpath
func MatMulDenseInto(out, a, b *Tensor) {
	m, k, n := matmulDims("MatMulDenseInto", out, a, b, false, false)
	gemm(out.Data, a.Data, k, 1, b.Data, m, k, n, false)
}

// MatMulSkipBInto computes out = a × b (a m×k, b k×n), leaving out every
// product whose b factor is ±0. It is the conv weight gradient,
// dWᵀ = cols·dY: the zero-skip stays on dY, as when dY was the
// multiplier of an axpy.
//
//lint:hotpath
func MatMulSkipBInto(out, a, b *Tensor) {
	m, k, n := matmulDims("MatMulSkipBInto", out, a, b, false, false)
	gemm(out.Data, a.Data, k, 1, b.Data, m, k, n, true)
}

// MatMulTransASkipBInto computes out = aᵀ × b (a k×m, b k×n), leaving out
// every product whose b factor is ±0. It is the conv input gradient,
// dcols = Wbᵀ·dY, with the zero-skip on dY.
//
//lint:hotpath
func MatMulTransASkipBInto(out, a, b *Tensor) {
	m, k, n := matmulDims("MatMulTransASkipBInto", out, a, b, true, false)
	gemm(out.Data, a.Data, 1, m, b.Data, m, k, n, true)
}

// MatMulTransBInto computes out = a × bᵀ where b is n×k (so bᵀ is k×n).
// The kernel first transposes b into pooled scratch, then computes out in
// register tiles over contiguous bᵀ rows (tileRowsGEMM). Per output
// element the additions happen in ascending-p order with a single chain
// starting from exact zero — the same sequence the dot-product reference
// produces (`s := 0; s += a[i][p]·b[j][p]`) — so results are bit-identical,
// including k = 0 (every output exactly +0) and the NaN/signed-zero cases
// (no zero-skip here, matching the reference, which also has none).
//
//lint:hotpath
func MatMulTransBInto(out, a, b *Tensor) {
	m, k, n := matmulDims("MatMulTransBInto", out, a, b, false, true)
	btp := transScratch.Get().(*[]float32)
	if cap(*btp) < k*n {
		*btp = make([]float32, k*n)
	}
	bt := (*btp)[:k*n]
	for j := 0; j < n; j++ {
		row := b.Data[j*k : j*k+k]
		for p, v := range row {
			bt[p*n+j] = v
		}
	}
	gemm(out.Data, a.Data, k, 1, bt, m, k, n, false)
	transScratch.Put(btp)
}

// transARows accumulates out rows [r0, r1) of aᵀ × b (a stored k×m). Output
// rows are processed transABlock at a time: the block's rows stay
// cache-resident across the full ascending-p sweep, instead of the naive
// loop's re-streaming of the whole output matrix on every p. Rows of od
// must be pre-zeroed.
//
//lint:hotpath
func transARows(od, ad, bd []float32, k, m, n, r0, r1 int) {
	for i0 := r0; i0 < r1; i0 += transABlock {
		i1 := min(i0+transABlock, r1)
		for p := 0; p < k; p++ {
			arow := ad[p*m : p*m+m]
			brow := bd[p*n : p*n+n]
			for i := i0; i < i1; i++ {
				if v := arow[i]; nonzero(v) {
					axpy(od[i*n:i*n+n], brow, v)
				}
			}
		}
	}
}

// MatMulTransAInto computes out = aᵀ × b where a is k×m (so aᵀ is m×k).
// Used for weight-gradient accumulation (dW = xᵀ·dy patterns). Parallelism
// shards over output rows, keeping writes disjoint.
//
//lint:hotpath
func MatMulTransAInto(out, a, b *Tensor) {
	m, k, n := matmulDims("MatMulTransAInto", out, a, b, true, false)
	out.Zero()
	ad, bd, od := a.Data, b.Data, out.Data
	if serialRows(m, m*n*k) {
		transARows(od, ad, bd, k, m, n, 0, m)
		return
	}
	//lint:allow hotpath-alloc parallel branch only: the closure fan-out runs above parallelThreshold, the serial hot path allocates nothing
	parallelFor(m, m*n*k, func(r0, r1 int) {
		transARows(od, ad, bd, k, m, n, r0, r1)
	})
}
