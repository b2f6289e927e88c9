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

	for ch0 := 0; ch0 < c; ch0 += bnGroup {
		var mean, variance [bnGroup]float64
		if train {
			group := bnChannels(ch0, c)
			sum := bnSums(x.Data, n, c, plane, group)
			for j := range mean {
				mean[j] = sum[j] / m
			}
			sq := bnSquaredDevs(x.Data, n, c, plane, group, mean)
			for j := range variance {
				variance[j] = sq[j] / m
			}
		}
		for ch := ch0; ch < min(ch0+bnGroup, c); ch++ {
			mu, v := mean[ch-ch0], variance[ch-ch0]
			if train {
				bn.RunMean.Data[ch] = float32((1-bn.Momentum)*float64(bn.RunMean.Data[ch]) + bn.Momentum*mu)
				bn.RunVar.Data[ch] = float32((1-bn.Momentum)*float64(bn.RunVar.Data[ch]) + bn.Momentum*v)
			} else {
				mu, v = float64(bn.RunMean.Data[ch]), float64(bn.RunVar.Data[ch])
			}
			inv := float32(1 / math.Sqrt(v+bn.Eps))
			bn.invStd[ch] = inv
			g, b := bn.Gamma.Data[ch], bn.Beta.Data[ch]
			mf := float32(mu)
			for i := 0; i < n; i++ {
				base := (i*c + ch) * plane
				xs := x.Data[base : base+plane]
				xh, ys := bn.xHat.Data[base : base+plane][:len(xs)], y.Data[base : base+plane][:len(xs)]
				for k, xv := range xs {
					h := (xv - mf) * inv
					xh[k] = h
					ys[k] = g*h + b
				}
			}
		}
	}
	return y
}

// bnGroup is how many channels' float64 sums run side by side. Each
// channel's sum is one serial chain in ascending (image, pixel) order —
// that order is what the results are pinned to — so a lone chain waits
// out the add latency at every element; four independent chains fill it.
const bnGroup = 4

// bnChannels returns the channels of the group starting at ch0. A group
// past the last channel repeats it, so every group runs the same loop;
// callers use only the results for channels below c.
//
//lint:hotpath
func bnChannels(ch0, c int) [bnGroup]int {
	var group [bnGroup]int
	for j := range group {
		group[j] = min(ch0+j, c-1)
	}
	return group
}

// bnSums returns Σ x over each channel of the group, every chain
// starting at 0 and adding in ascending (image, pixel) order.
//
//lint:hotpath
func bnSums(x []float32, n, c, plane int, group [bnGroup]int) [bnGroup]float64 {
	var s0, s1, s2, s3 float64
	for i := 0; i < n; i++ {
		img := x[i*c*plane : (i+1)*c*plane]
		x0 := img[group[0]*plane : group[0]*plane+plane]
		x1 := img[group[1]*plane : group[1]*plane+plane][:len(x0)]
		x2 := img[group[2]*plane : group[2]*plane+plane][:len(x0)]
		x3 := img[group[3]*plane : group[3]*plane+plane][:len(x0)]
		for k, v := range x0 {
			s0 += float64(v)
			s1 += float64(x1[k])
			s2 += float64(x2[k])
			s3 += float64(x3[k])
		}
	}
	return [bnGroup]float64{s0, s1, s2, s3}
}

// bnSquaredDevs returns Σ (x − mean)² over each channel of the group, in
// bnSums' order.
//
//lint:hotpath
func bnSquaredDevs(x []float32, n, c, plane int, group [bnGroup]int, mean [bnGroup]float64) [bnGroup]float64 {
	var s0, s1, s2, s3 float64
	for i := 0; i < n; i++ {
		img := x[i*c*plane : (i+1)*c*plane]
		x0 := img[group[0]*plane : group[0]*plane+plane]
		x1 := img[group[1]*plane : group[1]*plane+plane][:len(x0)]
		x2 := img[group[2]*plane : group[2]*plane+plane][:len(x0)]
		x3 := img[group[3]*plane : group[3]*plane+plane][:len(x0)]
		for k, v := range x0 {
			d0 := float64(v) - mean[0]
			d1 := float64(x1[k]) - mean[1]
			d2 := float64(x2[k]) - mean[2]
			d3 := float64(x3[k]) - mean[3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
	}
	return [bnGroup]float64{s0, s1, s2, s3}
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
			xs := x.Data[base : base+plane]
			ys := y.Data[base : base+plane][:len(xs)]
			for k, xv := range xs {
				ys[k] = g*((xv-mf)*inv) + b
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

	for ch0 := 0; ch0 < c; ch0 += bnGroup {
		sumDy, sumDyXhat := bnGradSums(dy.Data, bn.xHat.Data, n, c, plane, bnChannels(ch0, c))
		for ch := ch0; ch < min(ch0+bnGroup, c); ch++ {
			bn.GradGamma.Data[ch] += float32(sumDyXhat[ch-ch0])
			bn.GradBeta.Data[ch] += float32(sumDy[ch-ch0])

			sDy := float32(sumDy[ch-ch0])
			sDyX := float32(sumDyXhat[ch-ch0])
			scale := bn.Gamma.Data[ch] * bn.invStd[ch] / m
			for i := 0; i < n; i++ {
				base := (i*c + ch) * plane
				dys := dy.Data[base : base+plane]
				xh, dxs := bn.xHat.Data[base : base+plane][:len(dys)], dx.Data[base : base+plane][:len(dys)]
				for k, d := range dys {
					dxs[k] = scale * (m*d - sDy - xh[k]*sDyX)
				}
			}
		}
	}
	return dx
}

// bnGradSums returns Σ dy and Σ dy·x̂ over each channel of the group, in
// bnSums' order: eight independent chains.
//
//lint:hotpath
func bnGradSums(dy, xHat []float32, n, c, plane int, group [bnGroup]int) (sumDy, sumDyXhat [bnGroup]float64) {
	var s0, s1, s2, s3, p0, p1, p2, p3 float64
	for i := 0; i < n; i++ {
		img, ximg := dy[i*c*plane:(i+1)*c*plane], xHat[i*c*plane:(i+1)*c*plane]
		d0 := img[group[0]*plane : group[0]*plane+plane]
		d1 := img[group[1]*plane : group[1]*plane+plane][:len(d0)]
		d2 := img[group[2]*plane : group[2]*plane+plane][:len(d0)]
		d3 := img[group[3]*plane : group[3]*plane+plane][:len(d0)]
		h0 := ximg[group[0]*plane : group[0]*plane+plane][:len(d0)]
		h1 := ximg[group[1]*plane : group[1]*plane+plane][:len(d0)]
		h2 := ximg[group[2]*plane : group[2]*plane+plane][:len(d0)]
		h3 := ximg[group[3]*plane : group[3]*plane+plane][:len(d0)]
		for k, v := range d0 {
			v0, v1, v2, v3 := float64(v), float64(d1[k]), float64(d2[k]), float64(d3[k])
			s0 += v0
			s1 += v1
			s2 += v2
			s3 += v3
			p0 += v0 * float64(h0[k])
			p1 += v1 * float64(h1[k])
			p2 += v2 * float64(h2[k])
			p3 += v3 * float64(h3[k])
		}
	}
	return [bnGroup]float64{s0, s1, s2, s3}, [bnGroup]float64{p0, p1, p2, p3}
}
