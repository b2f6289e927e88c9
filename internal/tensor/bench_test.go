package tensor

import "testing"

// Kernel microbenchmarks. The serial set (shapes below parallelThreshold)
// runs single-goroutine regardless of GOMAXPROCS, so with a fixed iteration
// count (-benchtime=Nx) its allocs/op and B/op are deterministic on any
// runner — those are the benchmarks the CI bench-budget hard-gates. The
// large variants exercise the parallelFor sharding path and are tracked for
// ns/op drift only.

// benchOperands returns normal-range operands: training traffic, not the
// denormal-scale mix fillKernelOperand uses to expose summation-order
// changes, whose denormal products would time the FPU's slow path.
func benchOperands(m, k, n int) (a, b, at, out *Tensor) {
	rng := NewRNG(3)
	a, b, at = New(m, k), New(k, n), New(k, m)
	out = New(m, n)
	for _, t := range []*Tensor{a, b, at} {
		for i := range t.Data {
			t.Data[i] = float32(rng.NormFloat64())
		}
	}
	return
}

func BenchmarkMatMulDenseSerial(b *testing.B) {
	A, B, _, out := benchOperands(48, 48, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulDenseInto(out, A, B)
	}
}

func BenchmarkMatMulSkipBSerial(b *testing.B) {
	A, B, _, out := benchOperands(48, 48, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulSkipBInto(out, A, B)
	}
}

func BenchmarkMatMulTransASkipBSerial(b *testing.B) {
	_, B, At, out := benchOperands(48, 48, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransASkipBInto(out, At, B)
	}
}

func BenchmarkMatMulParallel(b *testing.B) {
	A, B, _, out := benchOperands(128, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulDenseInto(out, A, B)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	g := ConvGeom{InC: 16, InH: 16, InW: 16, OutC: 16, K: 3, Stride: 1, Pad: 1}
	src := make([]float32, g.InC*g.InH*g.InW)
	dst := make([]float32, g.ColRows()*g.ColCols())
	plane := planeScratch(g, 1)
	rng := NewRNG(5)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Im2Col(dst, src, plane, 1, g.ColCols())
	}
}

func BenchmarkCol2Im(b *testing.B) {
	g := ConvGeom{InC: 16, InH: 16, InW: 16, OutC: 16, K: 3, Stride: 1, Pad: 1}
	img := make([]float32, g.InC*g.InH*g.InW)
	cols := make([]float32, g.ColRows()*g.ColCols())
	plane := planeScratch(g, 1)
	rng := NewRNG(5)
	for i := range cols {
		cols[i] = float32(rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Col2Im(img, cols, plane, 1, g.ColCols())
	}
}
