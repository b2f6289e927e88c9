package nn

import (
	"math"

	"remapd/internal/tensor"
)

// ReLU is the rectified-linear activation. It keeps a mask of positive
// inputs for the backward pass.
type ReLU struct {
	name string
	ws   Workspace
	mask []bool
}

// NewReLU returns a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name returns the layer's identifier.
func (r *ReLU) Name() string { return r.name }

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Forward applies max(0, x).
//
//lint:hotpath
func (r *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	y := r.ws.Take("y", x.Shape...)
	if cap(r.mask) < x.Len() {
		r.mask = make([]bool, x.Len())
	}
	r.mask = r.mask[:x.Len()]
	ys, mask := y.Data[:len(x.Data)], r.mask[:len(x.Data)]
	for i, v := range x.Data {
		keep := reluKeep(v)
		ys[i] = math.Float32frombits(math.Float32bits(v) & keep)
		mask[i] = keep != 0
	}
	return y
}

// reluKeep returns all ones when v > 0 and zero otherwise (−0, NaN and
// negatives), the bit mask that selects v or +0. The compiler lowers the
// if to a conditional move: the sign of an activation is random, so a
// branch on it would be mispredicted about half the time.
//
//lint:hotpath
func reluKeep(v float32) uint32 {
	var keep uint32
	if v > 0 {
		keep = ^uint32(0)
	}
	return keep
}

// Backward zeroes gradients where the input was non-positive.
//
//lint:hotpath
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := r.ws.Take("dx", dy.Shape...)
	dxs, mask := dx.Data[:len(dy.Data)], r.mask[:len(dy.Data)]
	for i, v := range dy.Data {
		var keep uint32
		if mask[i] {
			keep = ^uint32(0)
		}
		dxs[i] = math.Float32frombits(math.Float32bits(v) & keep)
	}
	return dx
}

// Flatten reshapes N×C×H×W activations into N×(C·H·W) for the classifier
// head. It remembers the input shape to unflatten gradients. Both
// directions are workspace views over the incoming storage — no
// allocation once the cached headers exist.
type Flatten struct {
	name  string
	ws    Workspace
	shape []int
}

// NewFlatten returns a Flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name returns the layer's identifier.
func (f *Flatten) Name() string { return f.name }

// Params returns nil; Flatten has no parameters.
func (f *Flatten) Params() []*Param { return nil }

// Forward flattens all but the batch axis.
//
//lint:hotpath
func (f *Flatten) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	f.shape = append(f.shape[:0], x.Shape...)
	n := x.Dim(0)
	return f.ws.View2D("y", x, n, x.Len()/n)
}

// Backward restores the cached input shape.
//
//lint:hotpath
func (f *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return f.ws.View("dx", dy, f.shape...)
}

// Dropout zeroes activations with probability P during training and scales
// survivors by 1/(1−P) (inverted dropout). At evaluation time it is the
// identity.
type Dropout struct {
	name string
	P    float64
	rng  *tensor.RNG
	ws   Workspace
	mask []bool
}

// NewDropout returns a dropout layer with drop probability p.
func NewDropout(name string, p float64, rng *tensor.RNG) *Dropout {
	return &Dropout{name: name, P: p, rng: rng}
}

// Name returns the layer's identifier.
func (d *Dropout) Name() string { return d.name }

// Params returns nil; Dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

// Forward applies inverted dropout in training mode.
//
//lint:hotpath
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P <= 0 {
		d.mask = d.mask[:0]
		return x
	}
	y := d.ws.Take("y", x.Shape...)
	if cap(d.mask) < x.Len() {
		d.mask = make([]bool, x.Len())
	}
	d.mask = d.mask[:x.Len()]
	scale := float32(1 / (1 - d.P))
	for i, v := range x.Data {
		if d.rng.Float64() >= d.P {
			y.Data[i] = v * scale
			d.mask[i] = true
		} else {
			y.Data[i] = 0
			d.mask[i] = false
		}
	}
	return y
}

// Backward routes gradients only through surviving units.
//
//lint:hotpath
func (d *Dropout) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if len(d.mask) == 0 {
		return dy
	}
	dx := d.ws.Take("dx", dy.Shape...)
	scale := float32(1 / (1 - d.P))
	for i, v := range dy.Data {
		if d.mask[i] {
			dx.Data[i] = v * scale
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}
