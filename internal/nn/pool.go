package nn

import (
	"math"

	"remapd/internal/tensor"
)

// MaxPool2D is a max pooling layer with square window and equal stride
// (the common K=2, stride 2 case in VGG/SqueezeNet). Windows that would
// extend past the input edge are dropped (floor semantics).
type MaxPool2D struct {
	name    string
	K       int
	Stride  int
	ws      Workspace
	argmax  []int
	inShape []int
}

// NewMaxPool2D returns a max-pooling layer with window k and stride s.
func NewMaxPool2D(name string, k, s int) *MaxPool2D {
	return &MaxPool2D{name: name, K: k, Stride: s}
}

// Name returns the layer's identifier.
func (p *MaxPool2D) Name() string { return p.name }

// Params returns nil; pooling has no parameters.
func (p *MaxPool2D) Params() []*Param { return nil }

// Forward computes the window maxima and records argmax indices.
//
//lint:hotpath
func (p *MaxPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Rank() != 4 {
		badShape(p.name, "want NCHW input, got %v", x.Shape)
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh := (h-p.K)/p.Stride + 1
	ow := (w-p.K)/p.Stride + 1
	if oh <= 0 || ow <= 0 {
		badShape(p.name, "input %dx%d too small for pool %d/%d", h, w, p.K, p.Stride)
	}
	p.inShape = append(p.inShape[:0], x.Shape...)
	y := p.ws.Take("y", n, c, oh, ow)
	if cap(p.argmax) < y.Len() {
		p.argmax = make([]int, y.Len())
	}
	p.argmax = p.argmax[:y.Len()]
	k, st := p.K, p.Stride
	for pl := 0; pl < n*c; pl++ {
		base := pl * h * w
		plane := x.Data[base : base+h*w]
		for oy := 0; oy < oh; oy++ {
			oi := (pl*oh + oy) * ow
			best, arg := y.Data[oi:oi+ow], p.argmax[oi:oi+ow]
			for ox := range best {
				at := oy*st*w + ox*st
				best[ox], arg[ox] = plane[at], base+at
			}
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					if ky == 0 && kx == 0 {
						continue // the seed: a value never beats itself
					}
					off := (oy*st+ky)*w + kx
					poolTap(best, arg, plane[off:off+(ow-1)*st+1], st, base+off)
				}
			}
		}
	}
	return y
}

// poolTap offers one window tap to a row of pooling outputs: output ox
// sees row[ox·st], flat input index at+ox·st, and takes it only when it
// is strictly greater — so the first maximum wins a tie and a NaN never
// replaces the current best (nor is a NaN best ever replaced). Both
// updates are conditional moves: after a ReLU, ties and near-ties are
// common and a compare branch would be mispredicted.
//
//lint:hotpath
func poolTap(best []float32, arg []int, row []float32, st, at int) {
	arg = arg[:len(best)]
	for ox, cur := range best {
		v, i := row[ox*st], at+ox*st
		b, a, vb := math.Float32bits(cur), arg[ox], math.Float32bits(v)
		if v > cur {
			b, a = vb, i
		}
		best[ox], arg[ox] = math.Float32frombits(b), a
	}
}

// Backward routes each output gradient to its argmax input position.
//
//lint:hotpath
func (p *MaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := p.ws.Take("dx", p.inShape...)
	dx.Zero() // gradients accumulate into argmax positions
	for oi, v := range dy.Data {
		dx.Data[p.argmax[oi]] += v
	}
	return dx
}

// GlobalAvgPool averages each channel plane to a single value, producing
// N×C output from N×C×H×W input (ResNet/SqueezeNet heads).
type GlobalAvgPool struct {
	name    string
	ws      Workspace
	inShape []int
}

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// Name returns the layer's identifier.
func (p *GlobalAvgPool) Name() string { return p.name }

// Params returns nil; pooling has no parameters.
func (p *GlobalAvgPool) Params() []*Param { return nil }

// Forward averages each H×W plane.
//
//lint:hotpath
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Rank() != 4 {
		badShape(p.name, "want NCHW input, got %v", x.Shape)
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	p.inShape = append(p.inShape[:0], x.Shape...)
	y := p.ws.Take("y", n, c)
	inv := 1 / float32(h*w)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			plane := x.Data[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
			var s float32
			for _, v := range plane {
				s += v
			}
			y.Data[i*c+ch] = s * inv
		}
	}
	return y
}

// Backward spreads each gradient uniformly over its plane.
//
//lint:hotpath
func (p *GlobalAvgPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3]
	dx := p.ws.Take("dx", p.inShape...)
	inv := 1 / float32(h*w)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			g := dy.Data[i*c+ch] * inv
			plane := dx.Data[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
			for k := range plane {
				plane[k] = g
			}
		}
	}
	return dx
}
