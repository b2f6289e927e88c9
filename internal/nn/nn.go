// Package nn implements a from-scratch CNN training framework (layers,
// losses, SGD) with one deliberate twist: every matrix-vector multiply is
// routed through a Fabric, an abstraction of the compute substrate that
// executes it. The ideal fabric returns weights unchanged; the ReRAM fabric
// (internal/arch) returns weights with stuck-at-fault clamping applied per
// mapped crossbar, independently for the forward copy (W) and the backward
// transpose copy (Wᵀ), exactly as in a PipeLayer/ISAAC-style accelerator
// where the two copies live on different physical crossbars.
//
// This is the repository's equivalent of the paper's PytorX simulation layer.
package nn

import (
	"fmt"

	"remapd/internal/tensor"
)

// Param is a trainable parameter with its gradient. Layers expose their
// parameters through Params so optimizers and remapping policies (which need
// weight magnitudes and gradient magnitudes) can see them uniformly.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
}

// Layer is a differentiable network stage. Forward must cache whatever it
// needs for the subsequent Backward call; Backward consumes the gradient
// w.r.t. its output and returns the gradient w.r.t. its input.
type Layer interface {
	Name() string
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor //lint:hotpath per-batch, zero-alloc steady state
	Backward(dy *tensor.Tensor) *tensor.Tensor           //lint:hotpath per-batch, zero-alloc steady state
	Params() []*Param
}

// Fabric abstracts the substrate that performs the MVMs of parametric
// layers. EffectiveForward/EffectiveBackward return the weights that the
// substrate actually applies (the ideal fabric returns w itself); the ReRAM
// fabric returns fault-clamped copies. TransformGradient lets the substrate
// corrupt the weight-gradient tensor in place: in a PipeLayer-style
// accelerator the backward phase computes dW on crossbars too, so stuck
// cells there hijack gradient entries — the error-accumulation mechanism
// the paper identifies as the reason the backward phase is fault-critical.
// WeightsWritten is invoked after every optimizer step so the substrate can
// account for device write endurance.
type Fabric interface {
	EffectiveForward(layer string, w *tensor.Tensor) *tensor.Tensor  //lint:hotpath runs inside every MVM layer's Forward
	EffectiveBackward(layer string, w *tensor.Tensor) *tensor.Tensor //lint:hotpath runs inside every MVM layer's Backward
	TransformGradient(layer string, grad *tensor.Tensor)             //lint:hotpath runs per weight-gradient per batch
	WeightsWritten(layer string)                                     //lint:hotpath runs after every optimizer step
}

// IdealFabric is the identity substrate: a fault-free digital accelerator.
type IdealFabric struct{}

// EffectiveForward returns w unchanged.
//
//lint:hotpath
func (IdealFabric) EffectiveForward(_ string, w *tensor.Tensor) *tensor.Tensor { return w }

// EffectiveBackward returns w unchanged.
//
//lint:hotpath
func (IdealFabric) EffectiveBackward(_ string, w *tensor.Tensor) *tensor.Tensor { return w }

// TransformGradient leaves the gradient untouched on the ideal substrate.
//
//lint:hotpath
func (IdealFabric) TransformGradient(string, *tensor.Tensor) {}

// WeightsWritten is a no-op for the ideal substrate.
//
//lint:hotpath
func (IdealFabric) WeightsWritten(string) {}

// Network is an ordered stack of layers bound to a fabric.
type Network struct {
	Layers []Layer
	Fabric Fabric
}

// NewNetwork builds a network over the given layers with an ideal fabric.
// Use SetFabric to bind it to a ReRAM substrate.
func NewNetwork(layers ...Layer) *Network {
	return &Network{Layers: layers, Fabric: IdealFabric{}}
}

// SetFabric rebinds the compute substrate for all layers.
func (n *Network) SetFabric(f Fabric) {
	n.Fabric = f
	for _, l := range n.Layers {
		if fl, ok := l.(FabricUser); ok {
			fl.SetFabric(f)
		}
	}
}

// FabricUser is implemented by layers whose MVMs go through the fabric.
// Composite layers (Residual, model-specific blocks) implement it by
// forwarding to their inner layers.
type FabricUser interface{ SetFabric(Fabric) }

// Forward runs the full stack.
//
//lint:hotpath
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates dy through the stack in reverse.
//
//lint:hotpath
func (n *Network) Backward(dy *tensor.Tensor) *tensor.Tensor {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dy = n.Layers[i].Backward(dy)
	}
	return dy
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of trainable scalar parameters.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.W.Len()
	}
	return total
}

// MVMContainer is implemented by composite layers (e.g. Residual, Fire)
// that hold fabric-using layers internally, so mapping can recurse.
type MVMContainer interface {
	InnerMVMLayers() []string
	InnerWeight(name string) *tensor.Tensor
}

// MVMLayers returns the names of layers whose MVMs execute on the fabric
// (i.e. the layers that occupy crossbars), in network order, recursing into
// composite blocks.
func (n *Network) MVMLayers() []string {
	var names []string
	for _, l := range n.Layers {
		if c, ok := l.(MVMContainer); ok {
			names = append(names, c.InnerMVMLayers()...)
			continue
		}
		if _, ok := l.(FabricUser); ok {
			names = append(names, l.Name())
		}
	}
	return names
}

// LayerWeight returns the primary weight tensor of the named MVM layer,
// or nil if the layer is unknown. Used by the architecture mapper.
func (n *Network) LayerWeight(name string) *tensor.Tensor {
	for _, l := range n.Layers {
		if c, ok := l.(MVMContainer); ok {
			if w := c.InnerWeight(name); w != nil {
				return w
			}
			continue
		}
		if l.Name() != name {
			continue
		}
		for _, p := range l.Params() {
			if p.Name == name+".w" {
				return p.W
			}
		}
	}
	return nil
}

// badShape panics with a descriptive layer-geometry message. Layers call it
// behind an explicit condition check (rather than passing the condition to a
// variadic assert helper) so the valid-shape hot path never builds or boxes
// an argument list — Forward/Backward run per batch and must not allocate.
//
//lint:coldpath shape-panic helper, called only behind failed guards
func badShape(layer, format string, args ...interface{}) {
	panic(fmt.Sprintf("nn: layer %s: %s", layer, fmt.Sprintf(format, args...)))
}
