package nn

import (
	"math"

	"remapd/internal/tensor"
)

// Linear is a fully-connected layer: y = x·Wᵀ + b with W of shape Out×In.
// The forward MVM uses the fabric's forward-effective weight; the backward
// error-propagation MVM (dx = dy·W) uses the backward-effective weight,
// which on a ReRAM substrate lives on different crossbars (the Wᵀ copy).
type Linear struct {
	name   string
	In     int
	Out    int
	W      *tensor.Tensor // Out×In
	B      *tensor.Tensor // Out
	GradW  *tensor.Tensor
	GradB  *tensor.Tensor
	fabric Fabric

	ws Workspace
	x  *tensor.Tensor // cached input N×In
}

// NewLinear builds a fully-connected layer with Kaiming-uniform weights.
func NewLinear(name string, in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{
		name:   name,
		In:     in,
		Out:    out,
		W:      tensor.New(out, in),
		B:      tensor.New(out),
		GradW:  tensor.New(out, in),
		GradB:  tensor.New(out),
		fabric: IdealFabric{},
	}
	bound := math.Sqrt(6.0 / float64(in))
	rng.FillUniform(l.W, -bound, bound)
	return l
}

// Name returns the layer's unique identifier.
func (l *Linear) Name() string { return l.name }

func (l *Linear) SetFabric(f Fabric) { l.fabric = f }

// Params exposes the weight and bias.
func (l *Linear) Params() []*Param {
	return []*Param{
		{Name: l.name + ".w", W: l.W, Grad: l.GradW},
		{Name: l.name + ".b", W: l.B, Grad: l.GradB},
	}
}

// Forward computes y = x·Wfᵀ + b for a batch x of shape N×In.
//
//lint:hotpath
func (l *Linear) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.In {
		badShape(l.name, "want N×%d input, got %v", l.In, x.Shape)
	}
	l.x = x
	wt := l.ws.Take("wt", l.In, l.Out)
	tensor.TransposeInto(wt, l.fabric.EffectiveForward(l.name, l.W))
	n := x.Dim(0)
	y := l.ws.Take("y", n, l.Out)
	tensor.MatMulDenseInto(y, x, wt)
	for i := 0; i < n; i++ {
		row := y.Data[i*l.Out : (i+1)*l.Out]
		for j := range row {
			row[j] += l.B.Data[j]
		}
	}
	return y
}

// Backward computes dx = dy·Wb, dW = dyᵀ·x, db = Σ dy. Both products run
// transposed, on the GEMMs conv uses, with the zero-skip on dy.
//
//lint:hotpath
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if dy.Rank() != 2 || dy.Dim(1) != l.Out {
		badShape(l.name, "want N×%d grad, got %v", l.Out, dy.Shape)
	}
	n := dy.Dim(0)

	// Weight gradient: dWᵀ(In×Out) = xᵀ(In×N)·dy(N×Out), transposed into
	// GradW. It is computed on the backward-phase crossbars, so the
	// fabric may corrupt stuck entries. dWᵀ borrows the forward's Wfᵀ
	// buffer, which is dead once y is written.
	gwt := l.ws.Take("wt", l.In, l.Out)
	tensor.MatMulTransASkipBInto(gwt, l.x, dy)
	tensor.TransposeInto(l.GradW, gwt)
	l.fabric.TransformGradient(l.name, l.GradW)
	for i := 0; i < n; i++ {
		row := dy.Data[i*l.Out : (i+1)*l.Out]
		for j, v := range row {
			l.GradB.Data[j] += v
		}
	}

	// Error propagation through the backward (transpose) weight copy:
	// dxᵀ(In×N) = Wbᵀ(In×Out)·dyᵀ(Out×N).
	dyt := l.ws.Take("dyt", l.Out, n)
	tensor.TransposeInto(dyt, dy)
	dxt := l.ws.Take("dxt", l.In, n)
	tensor.MatMulTransASkipBInto(dxt, l.fabric.EffectiveBackward(l.name, l.W), dyt)
	dx := l.ws.Take("dx", n, l.In)
	tensor.TransposeInto(dx, dxt)
	return dx
}
