package tensor

import "sync"

// The three GEMM kernels below are register-tiled: each pass over the
// streamed operand computes a small compile-time-constant tile of output
// rows instead of one, which divides the memory traffic on the streamed
// matrix by the tile height — the dominant cost once the operand no longer
// fits in cache. MatMulInto and MatMulTransAInto funnel their inner loops
// through the vector axpy kernel (SSE2 on amd64, unrolled Go elsewhere).
// MatMulTransBInto, whose output is only as wide as a layer's output
// channels, runs every full 4×8 output tile through the tile4x8 register
// micro-kernel instead (tile.go). Both kernels work on distinct output
// elements only. The tiling is chosen so that it can never change results:
// it only reorders *which elements* are in flight, while the additions
// into any single output element stay in ascending inner-index order with
// a single accumulation chain, exactly like the naive reference loops
// (kernels_test.go proves bit-identity over a shape sweep). Tile sizes are
// compile-time constants — never derived from GOMAXPROCS — so the
// summation order per shape is fixed on every machine.
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
	if a.Rank() != 2 || b.Rank() != 2 || out.Rank() != 2 {
		panic("tensor: MatMulInto requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic("tensor: MatMulInto inner dimension mismatch")
	}
	if out.Shape[0] != m || out.Shape[1] != n {
		panic("tensor: MatMulInto output shape mismatch")
	}
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

// transBRows accumulates out rows [r0, r1) of a × bᵀ, where bt holds the
// already-transposed operand (k×n row-major). Every full 4×8 output tile
// goes through the tile4x8 micro-kernel, which keeps the tile in registers
// across the whole k loop; the n mod 8 remainder columns and the m mod 4
// remainder rows keep the axpy path. Both give each output element one
// chain from +0 in ascending p with no zero-skip — the dot-product
// reference has none, so neither may this path. Rows of od must be
// pre-zeroed.
//
//lint:hotpath
func transBRows(od, ad, bt []float32, k, n, r0, r1 int) {
	if k == 0 {
		return // every output stays the pre-zeroed +0
	}
	nt := n &^ (tileCols - 1) // columns covered by full tiles
	i := r0
	for ; i+tileRows <= r1; i += tileRows {
		for j := 0; j < nt; j += tileCols {
			tile4x8(od[i*n+j:(i+3)*n+j+tileCols], n,
				ad[i*k:(i+3)*k+k], k,
				bt[j:(k-1)*n+j+tileCols], n, k)
		}
		if nt == n {
			continue
		}
		o0 := od[i*n+nt : i*n+n]
		o1 := od[(i+1)*n+nt : (i+1)*n+n]
		o2 := od[(i+2)*n+nt : (i+2)*n+n]
		o3 := od[(i+3)*n+nt : (i+3)*n+n]
		for p := 0; p < k; p++ {
			brow := bt[p*n+nt : p*n+n]
			axpy(o0, brow, ad[i*k+p])
			axpy(o1, brow, ad[(i+1)*k+p])
			axpy(o2, brow, ad[(i+2)*k+p])
			axpy(o3, brow, ad[(i+3)*k+p])
		}
	}
	for ; i < r1; i++ {
		arow := ad[i*k : i*k+k]
		orow := od[i*n : i*n+n]
		for p := 0; p < k; p++ {
			axpy(orow, bt[p*n:p*n+n], arow[p])
		}
	}
}

// MatMulTransBInto computes out = a × bᵀ where b is n×k (so bᵀ is k×n).
// The kernel first transposes b into pooled scratch, then computes out in
// register tiles over contiguous bᵀ rows (transBRows). Per output
// element the additions happen in ascending-p order with a single chain
// starting from exact zero — the same sequence the dot-product reference
// produces (`s := 0; s += a[i][p]·b[j][p]`) — so results are bit-identical,
// including k = 0 (every output exactly +0) and the NaN/signed-zero cases
// (no zero-skip here, matching the reference, which also has none).
//
//lint:hotpath
func MatMulTransBInto(out, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || out.Rank() != 2 {
		panic("tensor: MatMulTransBInto requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic("tensor: MatMulTransBInto inner dimension mismatch")
	}
	if out.Shape[0] != m || out.Shape[1] != n {
		panic("tensor: MatMulTransBInto output shape mismatch")
	}
	ad, od := a.Data, out.Data

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

	out.Zero()
	if serialRows(m, m*n*k) {
		transBRows(od, ad, bt, k, n, 0, m)
	} else {
		//lint:allow hotpath-alloc parallel branch only: the closure fan-out runs above parallelThreshold, the serial hot path allocates nothing
		parallelFor(m, m*n*k, func(r0, r1 int) {
			transBRows(od, ad, bt, k, n, r0, r1)
		})
	}
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
	if a.Rank() != 2 || b.Rank() != 2 || out.Rank() != 2 {
		panic("tensor: MatMulTransAInto requires rank-2 tensors")
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic("tensor: MatMulTransAInto inner dimension mismatch")
	}
	if out.Shape[0] != m || out.Shape[1] != n {
		panic("tensor: MatMulTransAInto output shape mismatch")
	}
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
