package tensor

// ConvGeom describes a 2-D convolution geometry. All convolutions in the
// framework are square-kernel with symmetric padding and stride.
type ConvGeom struct {
	InC, InH, InW int // input channels / height / width
	OutC          int // output channels
	K             int // kernel size (K×K)
	Stride        int
	Pad           int
}

// OutH returns the output height for the geometry.
//
//lint:hotpath
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.K)/g.Stride + 1 }

// OutW returns the output width for the geometry.
//
//lint:hotpath
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.K)/g.Stride + 1 }

// ColRows returns the number of rows of the im2col matrix: InC*K*K, one
// per kernel tap (c, ky, kx).
//
//lint:hotpath
func (g ConvGeom) ColRows() int { return g.InC * g.K * g.K }

// ColCols returns the number of im2col columns one image fills:
// OutH*OutW, one per output pixel.
//
//lint:hotpath
func (g ConvGeom) ColCols() int { return g.OutH() * g.OutW() }

// validX returns the output columns [lo, hi) whose input column
// ox·Stride+kx−Pad lies inside the image, for kernel column kx.
//
//lint:hotpath
func (g ConvGeom) validX(kx, ow int) (lo, hi int) {
	return validRange(kx, g.Pad, g.Stride, g.InW, ow)
}

// validY returns the output rows [lo, hi) whose input row
// oy·Stride+ky−Pad lies inside the image, for kernel row ky.
//
//lint:hotpath
func (g ConvGeom) validY(ky, oh int) (lo, hi int) {
	return validRange(ky, g.Pad, g.Stride, g.InH, oh)
}

// validRange returns the outputs [lo, hi) ⊆ [0, out) whose input o·stride
// + tap − pad lies in [0, in).
//
//lint:hotpath
func validRange(tap, pad, stride, in, out int) (lo, hi int) {
	if d := pad - tap; d > 0 {
		lo = (d + stride - 1) / stride
	}
	hi = (in + pad - tap + stride - 1) / stride
	lo = min(lo, out)
	hi = max(min(hi, out), lo)
	return lo, hi
}

// Im2Col and Col2Im move a tap's row in one of two ways. Output rows at
// least runMin pixels wide go as runs: per output row, zeros where the tap
// falls in the padding and the input row read at the stride between.
// Narrower planes go through a tap-index table (tapIndex), built once per
// tap and used for all n images, which has no per-run bounds to work out,
// so a deep layer whose rows are one or two pixels wide costs about as
// little per element as a wide one. A tap that sees only padding (the
// eight outer taps of a 3×3 kernel on a 1×1 plane) is one clear.
const (
	runMin      = 8
	gatherChunk = 256 // output pixels per tap-index table; larger planes go chunk by chunk
)

// tapIndex fills idx with the input offset (iy·InW+ix, within a channel
// plane) that tap (ky, kx) reads for output pixels q0, q0+1, …, or −1
// where the tap falls in the padding. The table is the same for every
// channel and image.
//
//lint:hotpath
func (g ConvGeom) tapIndex(idx []int32, ky, kx, q0, ow int) {
	for q := range idx {
		oy, ox := (q0+q)/ow, (q0+q)%ow
		iy, ix := oy*g.Stride+ky-g.Pad, ox*g.Stride+kx-g.Pad
		idx[q] = -1
		if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
			idx[q] = int32(iy*g.InW + ix)
		}
	}
}

// Im2Col lowers a batch of n images (each C×H×W, flattened one after
// another in src) into the patch matrix dst, at row stride ld ≥
// n·ColCols(): row (c, ky, kx) holds, for image i from column
// i·ColCols() on, the OutH·OutW inputs that tap (ky, kx) of channel c
// sees, in output pixel order — the `unfold` layout. Out-of-bounds
// (padding) taps are zero; columns past n·ColCols() are left alone.
//
//lint:hotpath
func (g ConvGeom) Im2Col(dst, src []float32, n, ld int) {
	oh, ow := g.OutH(), g.OutW()
	r, plane := oh*ow, g.InH*g.InW
	if ld < n*r || len(dst) < (g.ColRows()-1)*ld+n*r {
		panic("tensor: Im2Col dst size mismatch")
	}
	if len(src) != n*g.InC*plane {
		panic("tensor: Im2Col src size mismatch")
	}
	var table [gatherChunk]int32
	for row := 0; row < g.ColRows(); row++ {
		c, ky, kx := row/(g.K*g.K), row/g.K%g.K, row%g.K
		y0, y1 := g.validY(ky, oh)
		x0, x1 := g.validX(kx, ow)
		out := dst[row*ld : row*ld+n*r]
		if y0 == y1 || x0 == x1 {
			clear(out)
			continue
		}
		if ow < runMin {
			for q0 := 0; q0 < r; q0 += gatherChunk {
				idx := table[:min(gatherChunk, r-q0)]
				g.tapIndex(idx, ky, kx, q0, ow)
				for i := 0; i < n; i++ {
					blk := out[i*r+q0 : i*r+q0+len(idx)]
					chn := src[(i*g.InC+c)*plane : (i*g.InC+c+1)*plane]
					for q, o := range idx {
						if o < 0 {
							blk[q] = 0
						} else {
							blk[q] = chn[o]
						}
					}
				}
			}
			continue
		}
		in0 := (y0*g.Stride+ky-g.Pad)*g.InW + x0*g.Stride + kx - g.Pad // first input read
		span := (x1-x0-1)*g.Stride + 1                                 // input columns a run reads
		for i := 0; i < n; i++ {
			blk := out[i*r : i*r+r]
			clear(blk[:y0*ow])
			clear(blk[y1*ow:])
			chn := src[(i*g.InC+c)*plane : (i*g.InC+c+1)*plane]
			for oy := y0; oy < y1; oy++ {
				run := blk[oy*ow : oy*ow+ow]
				start := in0 + (oy-y0)*g.Stride*g.InW
				in := chn[start : start+span]
				clear(run[:x0])
				clear(run[x1:])
				vals := run[x0:x1]
				if g.Stride == 1 {
					copy(vals, in)
					continue
				}
				for j := range vals {
					vals[j] = in[j*g.Stride]
				}
			}
		}
	}
}

// Col2Im scatters the patch-matrix gradient of a batch of n images (same
// layout as Im2Col's dst, row stride ld) back into the images' gradients
// (n·InC×InH×InW in dstImages), accumulating overlapping taps. dstImages
// is accumulated into (callers should zero it first if starting fresh).
//
// Each input pixel receives its additions in ascending output-pixel
// (oy, ox) order, the order a scatter of per-pixel patch rows makes and
// the one the training results are pinned to: the taps are visited in
// descending (ky, kx), because a larger ky reaches the same input row
// from a smaller oy, and a larger kx the same input column from a
// smaller ox; within one tap a pixel receives at most one addition.
// Ascending taps would reverse each pixel's additions and change its
// rounding.
//
//lint:hotpath
func (g ConvGeom) Col2Im(dstImages, srcCols []float32, n, ld int) {
	oh, ow := g.OutH(), g.OutW()
	r, plane := oh*ow, g.InH*g.InW
	if ld < n*r || len(srcCols) < (g.ColRows()-1)*ld+n*r {
		panic("tensor: Col2Im src size mismatch")
	}
	if len(dstImages) != n*g.InC*plane {
		panic("tensor: Col2Im dst size mismatch")
	}
	var table [gatherChunk]int32
	for row := g.ColRows() - 1; row >= 0; row-- {
		c, ky, kx := row/(g.K*g.K), row/g.K%g.K, row%g.K
		y0, y1 := g.validY(ky, oh)
		x0, x1 := g.validX(kx, ow)
		if y0 == y1 || x0 == x1 {
			continue
		}
		taps := srcCols[row*ld : row*ld+n*r]
		if ow < runMin {
			for q0 := 0; q0 < r; q0 += gatherChunk {
				idx := table[:min(gatherChunk, r-q0)]
				g.tapIndex(idx, ky, kx, q0, ow)
				for i := 0; i < n; i++ {
					blk := taps[i*r+q0 : i*r+q0+len(idx)]
					chn := dstImages[(i*g.InC+c)*plane : (i*g.InC+c+1)*plane]
					for q, o := range idx {
						if o >= 0 {
							chn[o] += blk[q]
						}
					}
				}
			}
			continue
		}
		in0 := (y0*g.Stride+ky-g.Pad)*g.InW + x0*g.Stride + kx - g.Pad // first input written
		span := (x1-x0-1)*g.Stride + 1                                 // input columns a run writes
		for i := 0; i < n; i++ {
			chn := dstImages[(i*g.InC+c)*plane : (i*g.InC+c+1)*plane]
			for oy := y0; oy < y1; oy++ {
				run := taps[(i*oh+oy)*ow+x0 : (i*oh+oy)*ow+x1]
				start := in0 + (oy-y0)*g.Stride*g.InW
				seg := chn[start : start+span]
				if g.Stride == 1 {
					seg = seg[:len(run)]
					for j, v := range run {
						seg[j] += v
					}
					continue
				}
				for j, v := range run {
					seg[j*g.Stride] += v
				}
			}
		}
	}
}
