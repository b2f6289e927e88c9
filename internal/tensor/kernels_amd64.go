package tensor

// cpuHasAVX2 reports whether the CPU executes AVX2 and the OS saves the
// YMM registers across context switches: CPUID leaf 1 must report OSXSAVE
// and AVX, XCR0 must enable the XMM and YMM state, and CPUID leaf 7 must
// report AVX2.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	const xmmYMMState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYMMState != xmmYMMState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// cpuid executes CPUID with EAX=leaf, ECX=sub (cpu_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (cpu_amd64.s); call only when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// tile4x8AVX2 is tile4x8's AVX2 body (tile_amd64.s).
//
//lint:hotpath vector kernel, asm body
//go:noescape
func tile4x8AVX2(dst []float32, ldd int, a []float32, lda, ak int, b []float32, ldb, k, rows int)

// tile4x8SkipAVX2 is tile4x8Skip's AVX2 body (tile_amd64.s).
//
//lint:hotpath vector kernel, asm body
//go:noescape
func tile4x8SkipAVX2(dst []float32, ldd int, a []float32, lda, ak int, b []float32, ldb, k, rows int)
