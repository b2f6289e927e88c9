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

// Im2Col and Col2Im go through zero-bordered copies of the images'
// planes: channel by channel, each image's (InH+2·Pad)×(InW+2·Pad) plane
// is staged into the caller's scratch, the n planes one after another. In
// a padded plane every tap of every output pixel lands on a real element,
// at an offset from the tap's origin (ky·pw+kx in the first plane) that
// does not depend on the tap or the channel: i·planeLen + (oy·pw +
// ox)·Stride for output pixel (oy, ox) of image i. One table of those
// offsets moves each tap's whole row — all n images, contiguous in the
// patch matrix — as one gather (or scatter-add), with no bounds to work
// out and no padding test, so a 1×1 plane costs as little per element as
// a wide one. Rows longer than gatherChunk go chunk by chunk, and then
// each channel rebuilds the table per chunk.
const gatherChunk = 4096

// padGeom returns the row stride and the size of one padded plane.
//
//lint:hotpath
func (g ConvGeom) padGeom() (pw, planeLen int) {
	pw = g.InW + 2*g.Pad
	return pw, (g.InH + 2*g.Pad) * pw
}

// gatherTable fills idx with the padded-scratch offsets, from their taps'
// origin, of patch-matrix columns j0, j0+1, … (image i, output pixel q at
// column i·ColCols()+q).
//
//lint:hotpath
func (g ConvGeom) gatherTable(idx []int32, j0 int) {
	pw, planeLen := g.padGeom()
	r, ow := g.ColCols(), g.OutW()
	i, oy, ox := j0/r, j0%r/ow, j0%ow
	for j := range idx {
		idx[j] = int32(i*planeLen + (oy*pw+ox)*g.Stride)
		if ox++; ox == ow {
			if ox, oy = 0, oy+1; oy*ow == r {
				oy, i = 0, i+1
			}
		}
	}
}

// stage copies channel c of the n images in images (n·InC×InH×InW) into
// the interiors of their padded planes in scratch.
//
//lint:hotpath
func (g ConvGeom) stage(scratch, images []float32, c, n int) {
	pw, planeLen := g.padGeom()
	hw := g.InH * g.InW
	for i := 0; i < n; i++ {
		chn := images[(i*g.InC+c)*hw : (i*g.InC+c+1)*hw]
		for y := 0; y < g.InH; y++ {
			at := i*planeLen + (y+g.Pad)*pw + g.Pad
			row, in := scratch[at:at+g.InW], chn[y*g.InW:(y+1)*g.InW]
			for x, v := range in {
				row[x] = v
			}
		}
	}
}

// addInteriors adds the interiors of the n padded planes in scratch into
// channel c of the images.
//
//lint:hotpath
func (g ConvGeom) addInteriors(images, scratch []float32, c, n int) {
	pw, planeLen := g.padGeom()
	hw := g.InH * g.InW
	for i := 0; i < n; i++ {
		chn := images[(i*g.InC+c)*hw : (i*g.InC+c+1)*hw]
		for y := 0; y < g.InH; y++ {
			at := i*planeLen + (y+g.Pad)*pw + g.Pad
			row, out := scratch[at:at+g.InW], chn[y*g.InW:(y+1)*g.InW]
			for x, v := range row {
				out[x] += v
			}
		}
	}
}

// scratchLen returns how many floats of scratch Im2Col and Col2Im use for
// a batch of n images: one padded plane per image.
//
//lint:hotpath
func (g ConvGeom) scratchLen(n int) int {
	_, planeLen := g.padGeom()
	return n * planeLen
}

// Im2Col lowers a batch of n images (each C×H×W, flattened one after
// another in src) into the patch matrix dst, at row stride ld ≥
// n·ColCols(): row (c, ky, kx) holds, for image i from column
// i·ColCols() on, the OutH·OutW inputs that tap (ky, kx) of channel c
// sees, in output pixel order — the `unfold` layout. Out-of-bounds
// (padding) taps are zero; columns past n·ColCols() are left alone.
// scratch holds at least n·(InH+2·Pad)·(InW+2·Pad) floats, one padded
// plane per image; its contents on entry do not matter.
//
//lint:hotpath
func (g ConvGeom) Im2Col(dst, src, scratch []float32, n, ld int) {
	cols := n * g.ColCols()
	if ld < cols || len(dst) < (g.ColRows()-1)*ld+cols {
		panic("tensor: Im2Col dst size mismatch")
	}
	if len(src) != n*g.InC*g.InH*g.InW {
		panic("tensor: Im2Col src size mismatch")
	}
	if len(scratch) < g.scratchLen(n) {
		panic("tensor: Im2Col scratch too small")
	}
	pw, _ := g.padGeom()
	clear(scratch[:g.scratchLen(n)]) // the borders stay zero: staging writes interiors only
	var table [gatherChunk]int32
	built := -1 // the first column the table holds
	for c := 0; c < g.InC; c++ {
		g.stage(scratch, src, c, n)
		for j0 := 0; j0 < cols; j0 += gatherChunk {
			idx := table[:min(gatherChunk, cols-j0)]
			if built != j0 {
				g.gatherTable(idx, j0)
				built = j0
			}
			at := c*g.K*g.K*ld + j0
			for ky := 0; ky < g.K; ky++ {
				for kx := 0; kx < g.K; kx++ {
					gather(dst[at:at+len(idx)], scratch[ky*pw+kx:], idx)
					at += ld
				}
			}
		}
	}
}

// Col2Im scatters the patch-matrix gradient of a batch of n images (same
// layout as Im2Col's dst, row stride ld) back into the images' gradients
// (n·InC×InH×InW in dstImages), accumulating overlapping taps. Channel by
// channel, the taps are summed in scratch (as for Im2Col) into zeroed
// padded planes, whose borders collect the padding taps' additions,
// which are dropped; each interior sum is then added to dstImages.
// Callers zero dstImages first when starting fresh, and then each pixel
// holds its sum exactly.
//
// Each input pixel's sum takes its additions in ascending output-pixel
// (oy, ox) order, the order a scatter of per-pixel patch rows makes and
// the one the training results are pinned to: the taps are visited in
// descending (ky, kx), because a larger ky reaches the same input row
// from a smaller oy, and a larger kx the same input column from a
// smaller ox; within one tap a pixel receives at most one addition, and
// a later chunk holds only later output pixels. Ascending taps would
// reverse each pixel's additions and change its rounding.
//
//lint:hotpath
func (g ConvGeom) Col2Im(dstImages, srcCols, scratch []float32, n, ld int) {
	cols := n * g.ColCols()
	if ld < cols || len(srcCols) < (g.ColRows()-1)*ld+cols {
		panic("tensor: Col2Im src size mismatch")
	}
	if len(dstImages) != n*g.InC*g.InH*g.InW {
		panic("tensor: Col2Im dst size mismatch")
	}
	if len(scratch) < g.scratchLen(n) {
		panic("tensor: Col2Im scratch too small")
	}
	pw, _ := g.padGeom()
	planes := scratch[:g.scratchLen(n)]
	var table [gatherChunk]int32
	built := -1 // the first column the table holds
	for c := 0; c < g.InC; c++ {
		clear(planes)
		for j0 := 0; j0 < cols; j0 += gatherChunk {
			idx := table[:min(gatherChunk, cols-j0)]
			if built != j0 {
				g.gatherTable(idx, j0)
				built = j0
			}
			at := ((c+1)*g.K*g.K-1)*ld + j0
			for ky := g.K - 1; ky >= 0; ky-- {
				for kx := g.K - 1; kx >= 0; kx-- {
					scatterAdd(scratch[ky*pw+kx:], srcCols[at:at+len(idx)], idx)
					at -= ld
				}
			}
		}
		g.addInteriors(dstImages, planes, c, n)
	}
}

// gather sets out[j] = src[idx[j]], eight at a time.
//
//lint:hotpath
func gather(out, src []float32, idx []int32) {
	out = out[:len(idx)]
	j := 0
	for ; j+8 <= len(idx); j += 8 {
		o, d := idx[j:j+8:j+8], out[j:j+8:j+8]
		d[0], d[1], d[2], d[3] = src[o[0]], src[o[1]], src[o[2]], src[o[3]]
		d[4], d[5], d[6], d[7] = src[o[4]], src[o[5]], src[o[6]], src[o[7]]
	}
	for ; j < len(idx); j++ {
		out[j] = src[idx[j]]
	}
}

// scatterAdd adds src[j] to acc[idx[j]] in ascending j, eight at a time;
// idx holds no offset twice.
//
//lint:hotpath
func scatterAdd(acc, src []float32, idx []int32) {
	src = src[:len(idx)]
	j := 0
	for ; j+8 <= len(idx); j += 8 {
		o, v := idx[j:j+8:j+8], src[j:j+8:j+8]
		acc[o[0]] += v[0]
		acc[o[1]] += v[1]
		acc[o[2]] += v[2]
		acc[o[3]] += v[3]
		acc[o[4]] += v[4]
		acc[o[5]] += v[5]
		acc[o[6]] += v[6]
		acc[o[7]] += v[7]
	}
	for ; j < len(idx); j++ {
		acc[idx[j]] += src[j]
	}
}
