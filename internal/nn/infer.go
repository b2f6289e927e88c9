package nn

import (
	"math"

	"remapd/internal/tensor"
)

// This file is the forward-only inference surface split out of the
// train-coupled Layer.Forward(x, train) API. Serving (internal/serve)
// runs millions of forward passes and never backpropagates, so the
// inference path must not populate backward caches (ReLU masks, BN xHat)
// or consult training-mode branches (dropout sampling, batch statistics).
// Layers opt in by implementing Inferer; everything else falls back to
// Forward(x, false), which for the remaining layers (conv, linear, pool,
// flatten) is already cache-light and train-flag-free.

// Inferer is the optional forward-only counterpart of Layer. Infer must
// produce exactly the values Forward(x, false) would — element-for-element
// identical floats — while skipping backward-cache writes and every
// training-only branch. Outputs follow the Workspace contract: valid until
// the layer's next Forward/Infer call.
type Inferer interface {
	Infer(x *tensor.Tensor) *tensor.Tensor //lint:hotpath per-request serving path, zero-alloc steady state
}

// InferLayer runs one layer forward-only, preferring its Inferer
// implementation. Composite layers (Residual) recurse through it so inner
// layers also take their inference path.
//
//lint:hotpath
func InferLayer(l Layer, x *tensor.Tensor) *tensor.Tensor {
	if inf, ok := l.(Inferer); ok {
		return inf.Infer(x)
	}
	return l.Forward(x, false)
}

// Infer runs the full stack forward-only: no grad buffers, no backward
// caches, no training-mode branches. It is the serving path's entry point
// and is 0 allocs/op once workspaces are warm (pinned by
// TestNetworkInferNoAllocSteadyState and BenchmarkNetworkInfer).
//
//lint:hotpath
func (n *Network) Infer(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range n.Layers {
		x = InferLayer(l, x)
	}
	return x
}

// Infer applies max(0, x) without recording the backward mask.
//
//lint:hotpath
func (r *ReLU) Infer(x *tensor.Tensor) *tensor.Tensor {
	y := r.ws.Take("y", x.Shape...)
	ys := y.Data[:len(x.Data)]
	for i, v := range x.Data {
		ys[i] = math.Float32frombits(math.Float32bits(v) & reluKeep(v))
	}
	return y
}

// Infer is the identity: inverted dropout only acts in training mode. The
// layer's RNG stream is untouched, so serving never perturbs it.
//
//lint:hotpath
func (d *Dropout) Infer(x *tensor.Tensor) *tensor.Tensor { return x }

// Infer computes relu(Body(x) + Short(x)) through the branches' inference
// paths.
//
//lint:hotpath
func (r *Residual) Infer(x *tensor.Tensor) *tensor.Tensor {
	b := x
	for _, l := range r.Body {
		b = InferLayer(l, b)
	}
	s := x
	for _, l := range r.Short {
		s = InferLayer(l, s)
	}
	if !b.SameShape(s) {
		panic("nn: residual branch shape mismatch: " + b.String() + " vs " + s.String())
	}
	sum := r.ws.Take("sum", b.Shape...)
	copy(sum.Data, b.Data)
	sum.Add(s)
	return r.relu.Infer(sum)
}
