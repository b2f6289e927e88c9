package nn

import (
	"math"

	"remapd/internal/tensor"
)

// Conv2D is a 2-D convolution implemented as im2col + GEMM, the same
// lowering a crossbar accelerator uses: the kernel tensor is unrolled into
// an OutC×(InC·K·K) matrix whose rows are mapped onto crossbar columns,
// and the batch into the (InC·K·K)×(N·OH·OW) `unfold` matrix it multiplies
// (PytorX's crxb_Conv2d orientation). Forward MVMs read the fabric's
// forward-effective weights; the backward error-propagation MVM reads the
// backward-effective (transpose-copy) weights.
type Conv2D struct {
	name   string
	Geom   tensor.ConvGeom
	W      *tensor.Tensor // OutC×InC×K×K
	B      *tensor.Tensor // OutC
	GradW  *tensor.Tensor
	GradB  *tensor.Tensor
	fabric Fabric

	ws   Workspace      // scratch reused across batches (see Workspace)
	cols *tensor.Tensor // im2col matrix (C·K²)×PadCols(N·R), cached for backward
	n    int            // cached batch size
}

// NewConv2D builds a convolution with Kaiming-normal initialisation.
func NewConv2D(name string, g tensor.ConvGeom, rng *tensor.RNG) *Conv2D {
	c := &Conv2D{
		name:   name,
		Geom:   g,
		W:      tensor.New(g.OutC, g.InC, g.K, g.K),
		B:      tensor.New(g.OutC),
		GradW:  tensor.New(g.OutC, g.InC, g.K, g.K),
		GradB:  tensor.New(g.OutC),
		fabric: IdealFabric{},
	}
	fanIn := float64(g.InC * g.K * g.K)
	rng.FillNormal(c.W, math.Sqrt(2.0/fanIn))
	return c
}

// Name returns the layer's unique identifier.
func (c *Conv2D) Name() string { return c.name }

func (c *Conv2D) SetFabric(f Fabric) { c.fabric = f }

// Params exposes the kernel and bias.
func (c *Conv2D) Params() []*Param {
	return []*Param{
		{Name: c.name + ".w", W: c.W, Grad: c.GradW},
		{Name: c.name + ".b", W: c.B, Grad: c.GradB},
	}
}

// Forward lowers the batch with im2col and computes one large GEMM:
// out(OutC×N·R) = Wf(OutC×C·K²) · cols(C·K²×N·R), with N·R padded to
// whole kernel tiles. Image i's channel oc is then one contiguous R-float
// block of out's row oc, copied to NCHW with the bias added.
//
//lint:hotpath
func (c *Conv2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	g := c.Geom
	if x.Rank() != 4 || x.Dim(1) != g.InC || x.Dim(2) != g.InH || x.Dim(3) != g.InW {
		badShape(c.name, "want N×%d×%d×%d input, got %v", g.InC, g.InH, g.InW, x.Shape)
	}
	n := x.Dim(0)
	c.n = n
	taps, r := g.ColRows(), g.ColCols()
	ld := tensor.PadCols(n * r)
	c.cols = c.ws.Take("cols", taps, ld)
	planes := c.ws.Take("planes", n, g.InH+2*g.Pad, g.InW+2*g.Pad)
	g.Im2Col(c.cols.Data, x.Data, planes.Data, n, ld)
	clearPadCols(c.cols, n*r)

	wf := c.ws.View2D("wf", c.fabric.EffectiveForward(c.name, c.W), g.OutC, taps)
	out := c.ws.Take("gemm", g.OutC, ld)
	tensor.MatMulDenseInto(out, wf, c.cols)
	y := c.ws.Take("y", n, g.OutC, g.OutH(), g.OutW())
	for i := 0; i < n; i++ {
		for oc, b := range c.B.Data {
			src := out.Data[oc*ld+i*r : oc*ld+i*r+r]
			dst := y.Data[(i*g.OutC+oc)*r : (i*g.OutC+oc+1)*r]
			for j, v := range src {
				dst[j] = v + b
			}
		}
	}
	return y
}

// Backward computes kernel/bias gradients and the input gradient:
// dWᵀ(C·K²×OutC) = cols·dY in ascending (image, pixel) order, and the
// propagation dcols = Wbᵀ·dY on the backward-effective weight copy, folded
// back to image space. A product whose dY factor is ±0 contributes
// nothing to either.
//
//lint:hotpath
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	g := c.Geom
	oh, ow := g.OutH(), g.OutW()
	if dy.Rank() != 4 || dy.Dim(1) != g.OutC || dy.Dim(2) != oh || dy.Dim(3) != ow {
		badShape(c.name, "want N×%d×%d×%d grad, got %v", g.OutC, oh, ow, dy.Shape)
	}
	n := c.n
	taps, r := g.ColRows(), g.ColCols()
	ld := c.cols.Dim(1)
	outCP := tensor.PadCols(g.OutC)

	// dY twice: OutC×ld (dcols' b operand, one R-float block per image and
	// channel) and ld×outCP (dW's b operand, pixel-major). Padding is zero,
	// so it adds nothing to dW's chains. db = Σ dy in (image, pixel) order.
	// The first reuses the forward's GEMM output, which is dead once y is
	// written.
	dym := c.ws.Take("gemm", g.OutC, ld)
	clearPadCols(dym, n*r)
	dyf := c.ws.Take("dyf", ld, outCP)
	dyf.Zero()
	for i := 0; i < n; i++ {
		for oc := 0; oc < g.OutC; oc++ {
			src := dy.Data[(i*g.OutC+oc)*r : (i*g.OutC+oc+1)*r]
			copy(dym.Data[oc*ld+i*r:oc*ld+i*r+r], src)
			gb := c.GradB.Data[oc]
			for j, v := range src {
				dyf.Data[(i*r+j)*outCP+oc] = v
				gb += v
			}
			c.GradB.Data[oc] = gb
		}
	}

	// dWᵀ = cols·dY, transposed into GradW. The dW outer products run on
	// the backward-phase crossbars, so the fabric may corrupt stuck entries.
	// dWᵀ borrows dcols' buffer, which is not taken again until GradW holds
	// the result.
	gwt := c.ws.Take("dcols", taps, outCP)
	tensor.MatMulSkipBInto(gwt, c.cols, dyf)
	const block = 16 // taps per pass: the block's gwt rows stay in L1
	for t0 := 0; t0 < taps; t0 += block {
		t1 := min(t0+block, taps)
		for oc := 0; oc < g.OutC; oc++ {
			row := c.GradW.Data[oc*taps+t0 : oc*taps+t1]
			for j := range row {
				row[j] = gwt.Data[(t0+j)*outCP+oc]
			}
		}
	}
	c.fabric.TransformGradient(c.name, c.GradW)

	// dcols = Wbᵀ·dY, then fold back to image space.
	wb := c.ws.View2D("wb", c.fabric.EffectiveBackward(c.name, c.W), g.OutC, taps)
	dcols := c.ws.Take("dcols", taps, ld)
	tensor.MatMulTransASkipBInto(dcols, wb, dym)

	dx := c.ws.Take("dx", n, g.InC, g.InH, g.InW)
	dx.Zero() // Col2Im accumulates into its destination
	planes := c.ws.Take("planes", n, g.InH+2*g.Pad, g.InW+2*g.Pad)
	g.Col2Im(dx.Data, dcols.Data, planes.Data, n, ld)
	return dx
}

// clearPadCols zeroes columns [used, cols) of every row of a rows×cols
// GEMM operand, the padding up to whole kernel tiles.
//
//lint:hotpath
func clearPadCols(t *tensor.Tensor, used int) {
	cols := t.Dim(1)
	if used == cols {
		return
	}
	for r := 0; r < t.Dim(0); r++ {
		clear(t.Data[r*cols+used : (r+1)*cols])
	}
}
