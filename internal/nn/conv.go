package nn

import (
	"math"

	"remapd/internal/tensor"
)

// Conv2D is a 2-D convolution implemented as im2col + GEMM, the same
// lowering a crossbar accelerator uses: the kernel tensor is unrolled into
// an OutC×(InC·K·K) matrix whose rows are mapped onto crossbar columns.
// Forward MVMs read the fabric's forward-effective weights; the backward
// error-propagation MVM reads the backward-effective (transpose-copy)
// weights.
type Conv2D struct {
	name   string
	Geom   tensor.ConvGeom
	W      *tensor.Tensor // OutC×InC×K×K
	B      *tensor.Tensor // OutC
	GradW  *tensor.Tensor
	GradB  *tensor.Tensor
	fabric Fabric

	ws   Workspace      // scratch reused across batches (see Workspace)
	cols *tensor.Tensor // im2col matrix (N·R)×C, cached for backward
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
// out((N·R)×OutC) = cols((N·R)×C) · Wfᵀ(C×OutC).
//
//lint:hotpath
func (c *Conv2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	g := c.Geom
	if x.Rank() != 4 || x.Dim(1) != g.InC || x.Dim(2) != g.InH || x.Dim(3) != g.InW {
		badShape(c.name, "want N×%d×%d×%d input, got %v", g.InC, g.InH, g.InW, x.Shape)
	}
	n := x.Dim(0)
	c.n = n
	rows, colsN := g.ColRows(), g.ColCols()
	c.cols = c.ws.Take("cols", n*rows, colsN)
	imgLen := g.InC * g.InH * g.InW
	for i := 0; i < n; i++ {
		g.Im2Col(c.cols.Data[i*rows*colsN:(i+1)*rows*colsN], x.Data[i*imgLen:(i+1)*imgLen])
	}

	wf := c.ws.View2D("wf", c.fabric.EffectiveForward(c.name, c.W), g.OutC, colsN)
	out := c.ws.Take("gemm", n*rows, g.OutC)
	tensor.MatMulTransBInto(out, c.cols, wf)
	for r := 0; r < n*rows; r++ {
		row := out.Data[r*g.OutC : (r+1)*g.OutC]
		for j := range row {
			row[j] += c.B.Data[j]
		}
	}
	// Transpose (N·R)×OutC rows into N×OutC×OH×OW layout, one contiguous
	// output plane at a time.
	oh, ow := g.OutH(), g.OutW()
	y := c.ws.Take("y", n, g.OutC, oh, ow)
	for i := 0; i < n; i++ {
		img := out.Data[i*rows*g.OutC : (i+1)*rows*g.OutC]
		for oc := 0; oc < g.OutC; oc++ {
			plane := y.Data[(i*g.OutC+oc)*rows : (i*g.OutC+oc+1)*rows]
			for r := range plane {
				plane[r] = img[r*g.OutC+oc]
			}
		}
	}
	return y
}

// Backward computes kernel/bias gradients and the input gradient. The
// propagation dcols = dy·Wb uses the backward-effective weight copy.
//
//lint:hotpath
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	g := c.Geom
	oh, ow := g.OutH(), g.OutW()
	if dy.Rank() != 4 || dy.Dim(1) != g.OutC || dy.Dim(2) != oh || dy.Dim(3) != ow {
		badShape(c.name, "want N×%d×%d×%d grad, got %v", g.OutC, oh, ow, dy.Shape)
	}
	n := c.n
	rows, colsN := g.ColRows(), g.ColCols()

	// Re-layout dy from N×OutC×OH×OW to (N·R)×OutC to match the GEMM view.
	dyf := c.ws.Take("dyf", n*rows, g.OutC)
	for i := 0; i < n; i++ {
		img := dyf.Data[i*rows*g.OutC : (i+1)*rows*g.OutC]
		for oc := 0; oc < g.OutC; oc++ {
			src := dy.Data[(i*g.OutC+oc)*oh*ow : (i*g.OutC+oc+1)*oh*ow]
			for r, v := range src {
				img[r*g.OutC+oc] = v
			}
		}
	}

	// dW(OutC×C) = dyfᵀ((N·R)×OutC)ᵀ · cols((N·R)×C); db = Σ dy. The dW
	// outer products run on the backward-phase crossbars, so the fabric may
	// corrupt stuck entries.
	gw := c.ws.View2D("gw", c.GradW, g.OutC, colsN)
	tensor.MatMulTransAInto(gw, dyf, c.cols)
	c.fabric.TransformGradient(c.name, c.GradW)
	for r := 0; r < n*rows; r++ {
		row := dyf.Data[r*g.OutC : (r+1)*g.OutC]
		for j, v := range row {
			c.GradB.Data[j] += v
		}
	}

	// dcols = dyf · Wb, then fold back to image space.
	wb := c.ws.View2D("wb", c.fabric.EffectiveBackward(c.name, c.W), g.OutC, colsN)
	dcols := c.ws.Take("dcols", n*rows, colsN) // MatMulInto zeroes it
	tensor.MatMulInto(dcols, dyf, wb)

	dx := c.ws.Take("dx", n, g.InC, g.InH, g.InW)
	dx.Zero() // Col2Im accumulates into its destination
	imgLen := g.InC * g.InH * g.InW
	for i := 0; i < n; i++ {
		g.Col2Im(dx.Data[i*imgLen:(i+1)*imgLen], dcols.Data[i*rows*colsN:(i+1)*rows*colsN])
	}
	return dx
}
