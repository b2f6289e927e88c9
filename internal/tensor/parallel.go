package tensor

import (
	"runtime"
	"sync"
)

// parallelThreshold is the matrix volume (rows*cols*inner) above which the
// kernels shard work across goroutines. Below it the scheduling cost
// outweighs the parallel speedup.
const parallelThreshold = 64 * 64 * 64

// serialRows reports whether an m-row kernel call of the given volume (its
// total flop count) should run inline on the calling goroutine. Kernels
// check this before building their parallelFor closure: a closure passed to
// parallelFor escapes to the heap, and the serial hot path (every GEMM in a
// bench-scale training step) must stay allocation-free.
//
//lint:hotpath
func serialRows(m, volume int) bool {
	return volume < parallelThreshold || m <= 1 || runtime.GOMAXPROCS(0) <= 1
}

// parallelFor runs work over the row range [0, m), sharding it across
// GOMAXPROCS-bounded goroutines. Callers reach it only when serialRows
// says no, so there are at least two rows and two procs. work must be
// safe to call concurrently on disjoint row ranges.
//
// Sharding never affects results: every kernel routed through this helper
// computes each output row independently, so the worker count (and hence
// GOMAXPROCS) cannot change any summation order.
func parallelFor(m int, work func(r0, r1 int)) {
	workers := min(runtime.GOMAXPROCS(0), m)
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		r0 := w * chunk
		r1 := min(r0+chunk, m)
		if r0 >= r1 {
			break
		}
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			work(r0, r1)
		}(r0, r1)
	}
	wg.Wait()
}
