// Package hotpathuse is the cross-package fact-propagation fixture: it
// imports the real remapd/internal/tensor and remapd/internal/nn packages
// and checks that annotations recorded while those dependencies were
// type-checked are visible here — an annotated kernel is callable, an
// unannotated one is a finding, and the nn.Layer interface contract
// reaches implementations in other packages.
package hotpathuse

import (
	"remapd/internal/nn"
	"remapd/internal/tensor"
)

//lint:hotpath
func gemm(dst, a, b *tensor.Tensor) {
	tensor.MatMulDenseInto(dst, a, b) // silent: cross-package //lint:hotpath fact
}

//lint:hotpath
func gemmAlloc(m, n int) *tensor.Tensor {
	return tensor.New(m, n) // want "hot path calls tensor.New which is not //lint:hotpath"
}

// badLayer implements nn.Layer without annotating the hot methods.
type badLayer struct{}

func (badLayer) Name() string { return "bad" }

func (badLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { // want "badLayer.Forward implements nn.Layer.Forward"
	return x
}

func (badLayer) Backward(dy *tensor.Tensor) *tensor.Tensor { // want "badLayer.Backward implements nn.Layer.Backward"
	return dy
}

func (badLayer) Params() []*nn.Param { return nil }

// viewLayer satisfies the contract: annotated, allocation-free methods.
type viewLayer struct{ ws nn.Workspace }

func (l *viewLayer) Name() string { return "view" }

//lint:hotpath
func (l *viewLayer) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	return l.ws.View2D("y", x, 1, x.Len())
}

//lint:hotpath
func (l *viewLayer) Backward(dy *tensor.Tensor) *tensor.Tensor { return dy }

func (l *viewLayer) Params() []*nn.Param { return nil }

var (
	_ nn.Layer = badLayer{}
	_ nn.Layer = (*viewLayer)(nil)
	_          = gemm
	_          = gemmAlloc
)
