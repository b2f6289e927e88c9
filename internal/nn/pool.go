package nn

import "remapd/internal/tensor"

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
	oi := 0
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			plane := x.Data[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bi := (oy*p.Stride)*w + ox*p.Stride
					best, bidx := plane[bi], bi
					for ky := 0; ky < p.K; ky++ {
						for kx := 0; kx < p.K; kx++ {
							idx := (oy*p.Stride+ky)*w + ox*p.Stride + kx
							if plane[idx] > best {
								best, bidx = plane[idx], idx
							}
						}
					}
					y.Data[oi] = best
					p.argmax[oi] = (i*c+ch)*h*w + bidx
					oi++
				}
			}
		}
	}
	return y
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
