package nn

import (
	"math"

	"remapd/internal/tensor"
)

// BatchNorm2D normalises each channel of an N×C×H×W activation over the
// batch and spatial axes, with learned scale (gamma) and shift (beta) and
// running statistics for evaluation mode.
type BatchNorm2D struct {
	name     string
	C        int
	Eps      float64
	Momentum float64

	Gamma, Beta         *tensor.Tensor
	GradGamma, GradBeta *tensor.Tensor
	RunMean, RunVar     *tensor.Tensor

	// forward caches
	ws      Workspace
	xHat    *tensor.Tensor
	invStd  []float32
	inShape []int
}

// NewBatchNorm2D returns a batch-norm layer over c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		name:      name,
		C:         c,
		Eps:       1e-5,
		Momentum:  0.1,
		Gamma:     tensor.New(c),
		Beta:      tensor.New(c),
		GradGamma: tensor.New(c),
		GradBeta:  tensor.New(c),
		RunMean:   tensor.New(c),
		RunVar:    tensor.New(c),
	}
	bn.Gamma.Fill(1)
	bn.RunVar.Fill(1)
	return bn
}

// Name returns the layer's identifier.
func (bn *BatchNorm2D) Name() string { return bn.name }

// Params exposes gamma and beta.
func (bn *BatchNorm2D) Params() []*Param {
	return []*Param{
		{Name: bn.name + ".gamma", W: bn.Gamma, Grad: bn.GradGamma},
		{Name: bn.name + ".beta", W: bn.Beta, Grad: bn.GradBeta},
	}
}

// Forward normalises per channel. In training mode it uses batch statistics
// and updates the running averages; in eval mode it uses the running stats.
//
//lint:hotpath
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != bn.C {
		badShape(bn.name, "want N×%d×H×W, got %v", bn.C, x.Shape)
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	bn.inShape = append(bn.inShape[:0], x.Shape...)
	plane := h * w
	m := float64(n * plane)

	y := bn.ws.Take("y", x.Shape...)
	bn.xHat = bn.ws.Take("xhat", x.Shape...)
	if cap(bn.invStd) < c {
		bn.invStd = make([]float32, c)
	}
	bn.invStd = bn.invStd[:c]

	for ch := 0; ch < c; ch++ {
		var mean, variance float64
		if train {
			var sum float64
			for i := 0; i < n; i++ {
				base := (i*c + ch) * plane
				for k := 0; k < plane; k++ {
					sum += float64(x.Data[base+k])
				}
			}
			mean = sum / m
			var sq float64
			for i := 0; i < n; i++ {
				base := (i*c + ch) * plane
				for k := 0; k < plane; k++ {
					d := float64(x.Data[base+k]) - mean
					sq += d * d
				}
			}
			variance = sq / m
			bn.RunMean.Data[ch] = float32((1-bn.Momentum)*float64(bn.RunMean.Data[ch]) + bn.Momentum*mean)
			bn.RunVar.Data[ch] = float32((1-bn.Momentum)*float64(bn.RunVar.Data[ch]) + bn.Momentum*variance)
		} else {
			mean = float64(bn.RunMean.Data[ch])
			variance = float64(bn.RunVar.Data[ch])
		}
		inv := float32(1 / math.Sqrt(variance+bn.Eps))
		bn.invStd[ch] = inv
		g, b := bn.Gamma.Data[ch], bn.Beta.Data[ch]
		mf := float32(mean)
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for k := 0; k < plane; k++ {
				xh := (x.Data[base+k] - mf) * inv
				bn.xHat.Data[base+k] = xh
				y.Data[base+k] = g*xh + b
			}
		}
	}
	return y
}

// Infer normalises with the running statistics only — the same arithmetic
// as Forward's eval branch, element-for-element — without writing the
// xHat/invStd backward caches.
//
//lint:hotpath
func (bn *BatchNorm2D) Infer(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != bn.C {
		badShape(bn.name, "want N×%d×H×W, got %v", bn.C, x.Shape)
	}
	n, c := x.Dim(0), x.Dim(1)
	plane := x.Dim(2) * x.Dim(3)
	y := bn.ws.Take("y", x.Shape...)
	for ch := 0; ch < c; ch++ {
		mean := float64(bn.RunMean.Data[ch])
		variance := float64(bn.RunVar.Data[ch])
		inv := float32(1 / math.Sqrt(variance+bn.Eps))
		g, b := bn.Gamma.Data[ch], bn.Beta.Data[ch]
		mf := float32(mean)
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for k := 0; k < plane; k++ {
				xh := (x.Data[base+k] - mf) * inv
				y.Data[base+k] = g*xh + b
			}
		}
	}
	return y
}

// Backward implements the standard batch-norm gradient (training-mode
// statistics; eval mode is only used for inference, never backprop).
//
//lint:hotpath
func (bn *BatchNorm2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, c := bn.inShape[0], bn.inShape[1]
	plane := bn.inShape[2] * bn.inShape[3]
	m := float32(n * plane)
	dx := bn.ws.Take("dx", bn.inShape...)

	for ch := 0; ch < c; ch++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for k := 0; k < plane; k++ {
				d := float64(dy.Data[base+k])
				sumDy += d
				sumDyXhat += d * float64(bn.xHat.Data[base+k])
			}
		}
		bn.GradGamma.Data[ch] += float32(sumDyXhat)
		bn.GradBeta.Data[ch] += float32(sumDy)

		g := bn.Gamma.Data[ch]
		inv := bn.invStd[ch]
		sDy := float32(sumDy)
		sDyX := float32(sumDyXhat)
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for k := 0; k < plane; k++ {
				xh := bn.xHat.Data[base+k]
				dx.Data[base+k] = g * inv / m * (m*dy.Data[base+k] - sDy - xh*sDyX)
			}
		}
	}
	return dx
}
