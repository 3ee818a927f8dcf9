package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense float32 array with row-major layout. The zero value is
// an empty scalar-free tensor; use New or Zeros to construct usable values.
type Tensor struct {
	shape Shape
	data  []float32
}

// New wraps data with the given shape. The data slice is used directly (not
// copied); its length must equal shape.Numel().
func New(shape Shape, data []float32) *Tensor {
	if len(data) != shape.Numel() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)",
			len(data), shape, shape.Numel()))
	}
	return &Tensor{shape: shape.Clone(), data: data}
}

// Zeros allocates a zero-filled tensor of the given shape.
func Zeros(dims ...int) *Tensor { return ZerosIn(nil, dims...) }

// ZerosLike allocates a zero-filled tensor with t's shape.
func ZerosLike(t *Tensor) *Tensor { return ZerosLikeIn(nil, t) }

// Full allocates a tensor of the given shape with every element set to v.
func Full(v float32, dims ...int) *Tensor { return FullIn(nil, v, dims...) }

// Scalar returns a rank-0 tensor holding v.
func Scalar(v float32) *Tensor {
	return &Tensor{shape: Shape{}, data: []float32{v}}
}

// FromSlice builds a rank-1 tensor copying vals.
func FromSlice(vals []float32) *Tensor { return FromSliceIn(nil, vals) }

// Shape returns the tensor's shape. Callers must not mutate it.
func (t *Tensor) Shape() Shape { return t.shape }

// Data returns the backing slice. Callers may read or write elements but
// must not re-slice beyond its length.
func (t *Tensor) Data() []float32 { return t.data }

// Numel returns the number of elements.
func (t *Tensor) Numel() int { return len(t.data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	stride := 1
	for i := len(t.shape) - 1; i >= 0; i-- {
		d := idx[i]
		if d < 0 || d >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off += d * stride
		stride *= t.shape[i]
	}
	return off
}

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor { return t.CloneIn(nil) }

// Reshape returns a view-like tensor sharing t's data with a new shape.
// One dimension may be -1, in which case it is inferred. Returns an error
// when element counts cannot match.
func (t *Tensor) Reshape(dims ...int) (*Tensor, error) {
	s := NewShape(dims...)
	infer := -1
	known := 1
	for i, d := range s {
		if d == -1 {
			if infer >= 0 {
				return nil, fmt.Errorf("tensor: reshape with multiple -1 dims %v", s)
			}
			infer = i
			continue
		}
		if d < 0 {
			return nil, fmt.Errorf("tensor: reshape with negative dim %v", s)
		}
		known *= d
	}
	if infer >= 0 {
		if known == 0 || len(t.data)%known != 0 {
			return nil, fmt.Errorf("tensor: cannot infer reshape %v from %d elements", s, len(t.data))
		}
		s[infer] = len(t.data) / known
	} else if known != len(t.data) {
		return nil, fmt.Errorf("tensor: reshape %v incompatible with %d elements", s, len(t.data))
	}
	return &Tensor{shape: s, data: t.data}, nil
}

// Equal reports whether two tensors have identical shape and bit-identical
// contents.
func (t *Tensor) Equal(o *Tensor) bool {
	if !t.shape.Equal(o.shape) {
		return false
	}
	for i := range t.data {
		if t.data[i] != o.data[i] && !(isNaN32(t.data[i]) && isNaN32(o.data[i])) {
			return false
		}
	}
	return true
}

// AllClose reports whether two tensors agree element-wise within
// atol+rtol*|b|. NaN matches only NaN and an infinity only the same
// infinity, so a kernel that starts emitting either against finite values
// fails the comparison.
func (t *Tensor) AllClose(o *Tensor, rtol, atol float64) bool {
	if !t.shape.Equal(o.shape) {
		return false
	}
	for i := range t.data {
		a, b := float64(t.data[i]), float64(o.data[i])
		switch {
		case a == b, math.IsNaN(a) && math.IsNaN(b):
		case math.IsInf(a, 0) || math.IsInf(b, 0) || !(math.Abs(a-b) <= atol+rtol*math.Abs(b)):
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// t and o, useful in test diagnostics. Panics if shapes differ.
func (t *Tensor) MaxAbsDiff(o *Tensor) float64 {
	if !t.shape.Equal(o.shape) {
		panic(fmt.Sprintf("tensor: MaxAbsDiff shape mismatch %v vs %v", t.shape, o.shape))
	}
	var m float64
	for i := range t.data {
		d := math.Abs(float64(t.data[i]) - float64(o.data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// Sum returns the sum of all elements in float64 precision.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// String renders a compact description: shape plus up to 8 leading values.
func (t *Tensor) String() string {
	n := len(t.data)
	show := n
	if show > 8 {
		show = 8
	}
	s := fmt.Sprintf("Tensor%v{", t.shape)
	for i := 0; i < show; i++ {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", t.data[i])
	}
	if show < n {
		s += " …"
	}
	return s + "}"
}

func isNaN32(f float32) bool { return f != f }
