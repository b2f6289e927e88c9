// Package tensor implements the dense float32 tensor math that underpins
// the CNN training framework. It is the lowest substrate layer of the
// repository: everything above it (layers, models, the crossbar MVM engine)
// is expressed in terms of these tensors.
//
// Tensors are row-major and of arbitrary rank. The package favours explicit,
// allocation-conscious APIs (e.g. MatMulDenseInto) because the training
// loop calls these routines millions of times.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major float32 array with an explicit shape.
// The zero value is an empty tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New returns a zero-filled tensor with the given shape.
//
// The panic path formats a copy of shape, not shape itself: passing the
// parameter to fmt would make it escape, forcing every caller to heap-
// allocate its variadic argument list even on the non-panicking hot path
// (Workspace.Take forwards here on every buffer miss).
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must match the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the total number of elements.
//
//lint:hotpath trivial accessor on the kernel path
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of axis i.
//
//lint:hotpath trivial accessor on the kernel path
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of axes.
//
//lint:hotpath trivial accessor on the kernel path
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t with a new shape of equal volume.
// The underlying data is shared.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape volume %d to %v", len(t.Data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// Zero sets every element to 0.
//
//lint:hotpath
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
//
//lint:hotpath
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// At returns the element at the given multi-index (rank must match).
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// SameShape reports whether t and o have identical shapes.
//
//lint:hotpath
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Add accumulates o into t element-wise. Shapes must have equal volume.
//
//lint:hotpath
func (t *Tensor) Add(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Add volume mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Sub subtracts o from t element-wise.
//
//lint:hotpath
func (t *Tensor) Sub(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Sub volume mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] -= v
	}
}

// Scale multiplies every element by s.
//
//lint:hotpath
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AXPY computes t += a*o element-wise.
//
//lint:hotpath
func (t *Tensor) AXPY(a float32, o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: AXPY volume mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += a * v
	}
}

// Dot returns the inner product of the flattened tensors.
//
//lint:hotpath
func Dot(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic("tensor: Dot volume mismatch")
	}
	var s float64
	for i := range a.Data {
		s += float64(a.Data[i]) * float64(b.Data[i])
	}
	return s
}

// Sum returns the sum of all elements as float64 for stability.
//
//lint:hotpath
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// AbsMax returns the maximum absolute element value (0 for empty tensors).
//
//lint:hotpath
func (t *Tensor) AbsMax() float32 {
	var m float32
	for _, v := range t.Data {
		// |v| by clearing the sign bit: a compare on the sign would be
		// mispredicted on gradients. A NaN stays NaN, and a > m never
		// picks it.
		a := math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
		if a > m {
			m = a
		}
	}
	return m
}

// L2Norm returns the Euclidean norm of the flattened tensor.
//
//lint:hotpath
func (t *Tensor) L2Norm() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// ArgMaxRow returns, for a 2-D tensor, the index of the maximum element in
// row r. Useful for classification outputs.
//
//lint:hotpath
func (t *Tensor) ArgMaxRow(r int) int {
	if t.Rank() != 2 {
		panic("tensor: ArgMaxRow requires rank 2")
	}
	cols := t.Shape[1]
	row := t.Data[r*cols : (r+1)*cols]
	best, bi := row[0], 0
	for i, v := range row {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// TransposeInto writes the transpose of the r×c tensor src into dst,
// which must be c×r. Values are copied exactly. It panics unless both are
// rank-2 with swapped dimensions.
//
//lint:hotpath
func TransposeInto(dst, src *Tensor) {
	if src.Rank() != 2 || dst.Rank() != 2 || dst.Shape[0] != src.Shape[1] || dst.Shape[1] != src.Shape[0] {
		panic("tensor: TransposeInto shape mismatch")
	}
	r, c := src.Shape[0], src.Shape[1]
	s := src.Data[:r*c]
	// One dst row at a time, gathered from a column of src: contiguous
	// stores measured faster than cache-blocking on the layer-sized
	// matrices transposed here.
	for j := 0; j < c; j++ {
		row := dst.Data[j*r : j*r+r]
		for i := range row {
			row[i] = s[i*c+j]
		}
	}
}

// String renders a short description (shape plus a handful of values),
// intended for debugging rather than serialization.
func (t *Tensor) String() string {
	n := len(t.Data)
	if n > 8 {
		return fmt.Sprintf("Tensor%v[%v %v %v ... %v]", t.Shape, t.Data[0], t.Data[1], t.Data[2], t.Data[n-1])
	}
	return fmt.Sprintf("Tensor%v%v", t.Shape, t.Data)
}

//lint:hotpath
func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
