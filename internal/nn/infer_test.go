package nn

import (
	"testing"

	"remapd/internal/tensor"
)

// inferStack builds a small but representative serving stack — conv, BN,
// ReLU, pool, dropout, flatten, linear — with GEMM volumes below the tensor
// package's parallel threshold, so the steady-state allocation count is
// deterministic.
func inferStack() (*Network, *tensor.Tensor) {
	rng := tensor.NewRNG(3)
	g := tensor.ConvGeom{InC: 3, InH: 8, InW: 8, OutC: 8, K: 3, Stride: 1, Pad: 1}
	net := NewNetwork(
		NewConv2D("c1", g, rng),
		NewBatchNorm2D("bn1", 8),
		NewReLU("r1"),
		NewMaxPool2D("p1", 2, 2),
		NewDropout("do1", 0.5, rng),
		NewFlatten("fl"),
		NewLinear("fc", 8*4*4, 10, rng),
	)
	x := tensor.New(4, 3, 8, 8)
	rng.FillNormal(x, 1)
	// Give BN non-trivial running stats so Infer exercises a real eval path.
	net.Forward(x, true)
	return net, x
}

// TestNetworkInferMatchesForwardEval pins the Inferer contract: Infer must
// produce bit-identical floats to Forward(x, false) — the figure pipelines
// depend on eval-mode outputs, and the serving path must not drift from
// them.
func TestNetworkInferMatchesForwardEval(t *testing.T) {
	net, x := inferStack()
	want := net.Forward(x, false)
	got := make([]float32, len(want.Data))
	copy(got, net.Infer(x).Data)
	// Forward again: Infer shares workspace buffers with Forward, so the
	// comparison must be against a copy taken before any overwrite.
	want = net.Forward(x, false)
	for i, v := range got {
		if v != want.Data[i] { //lint:allow float-eq pinning bit-identity between the two paths
			t.Fatalf("Infer diverges from Forward(x, false) at %d: %v vs %v", i, v, want.Data[i])
		}
	}
}

// TestNetworkInferNoAllocSteadyState pins the serving hot path at zero
// allocations per pass once workspaces are warm — the `//lint:hotpath`
// contract remapd-serve's request loop relies on.
func TestNetworkInferNoAllocSteadyState(t *testing.T) {
	net, x := inferStack()
	net.Infer(x)
	net.Infer(x) // warm the workspaces
	allocs := testing.AllocsPerRun(10, func() { net.Infer(x) })
	if allocs != 0 {
		t.Fatalf("Network.Infer allocates %v objects/op in steady state; want 0", allocs)
	}
}

func BenchmarkNetworkInfer(b *testing.B) {
	net, x := inferStack()
	net.Infer(x) // warm the workspaces
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Infer(x)
	}
}
