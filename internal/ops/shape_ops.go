package ops

import (
	"fmt"

	"repro/internal/tensor"
)

// concatK joins its inputs along attribute "axis".
func concatK(in []*tensor.Tensor, attrs Attrs, alc tensor.Allocator) ([]*tensor.Tensor, error) {
	if err := need("Concat", in, 1, -1); err != nil {
		return nil, err
	}
	axis := attrs.Int("axis", 1)
	shapes := make([]tensor.Shape, len(in))
	for i, t := range in {
		shapes[i] = t.Shape()
	}
	outShape, err := tensor.Concat(axis, shapes...)
	if err != nil {
		return nil, argErr("Concat", "%v", err)
	}
	if axis < 0 {
		axis += outShape.Rank()
	}
	// Each input is copied into its strided view of the output.
	out := tensor.New(outShape, tensor.AllocUninit(alc, outShape.Numel()))
	var buf [walkInline]int
	os := broadcastStrides(buf[:], outShape, outShape)
	at := 0
	for _, t := range in {
		w := newWalk(t.Shape(), os, nil)
		w.base[0] = at * os[axis]
		w.copyRuns(out.Data(), t.Data(), 0, w.runs)
		at += t.Shape()[axis]
	}
	return []*tensor.Tensor{out}, nil
}

// reshapeK implements ONNX Reshape: input 0 is the data, input 1 a rank-1
// tensor holding the target dims (with -1 inference and 0 meaning "copy
// input dim"). The attribute form "shape" is also accepted for convenience.
func reshapeK(in []*tensor.Tensor, attrs Attrs, alc tensor.Allocator) ([]*tensor.Tensor, error) {
	if err := need("Reshape", in, 1, 2); err != nil {
		return nil, err
	}
	x := in[0]
	var dims []int
	if len(in) == 2 {
		sd := in[1].Data()
		dims = make([]int, len(sd))
		for i, v := range sd {
			dims[i] = int(v)
		}
	} else if dims = attrs.Ints("shape", nil); dims == nil {
		return nil, argErr("Reshape", "no shape input or attribute")
	}
	shape, err := reshapeTo(x.Shape(), dims)
	if err != nil {
		return nil, argErr("Reshape", "%v", err)
	}
	return []*tensor.Tensor{tensor.New(shape, x.CloneIn(alc).Data())}, nil
}

// reshapeTo resolves ONNX Reshape target dims against an input of shape s:
// 0 copies the input's dimension at that position and one -1 takes the
// elements left over. The result holds exactly s.Numel() elements.
func reshapeTo(s tensor.Shape, dims []int) (tensor.Shape, error) {
	out := make(tensor.Shape, len(dims))
	infer, known := -1, 1
	for i, d := range dims {
		switch {
		case d == 0:
			if i >= len(s) {
				return nil, fmt.Errorf("dim 0 at position %d exceeds input rank %d", i, len(s))
			}
			d = s[i]
		case d == -1:
			if infer >= 0 {
				return nil, fmt.Errorf("reshape with multiple -1 dims %v", dims)
			}
			infer = i
			continue
		case d < 0:
			return nil, fmt.Errorf("reshape with negative dim %v", dims)
		}
		out[i] = d
		known *= d
	}
	n := s.Numel()
	if infer >= 0 {
		if known == 0 || n%known != 0 {
			return nil, fmt.Errorf("cannot infer reshape %v from %d elements", dims, n)
		}
		out[infer] = n / known
	} else if known != n {
		return nil, fmt.Errorf("reshape %v incompatible with %d elements", dims, n)
	}
	return out, nil
}

// flattenK collapses dimensions into a 2-D matrix at attribute "axis"
// (default 1): [d0*…*d(axis-1), d(axis)*…*dn].
func flattenK(in []*tensor.Tensor, attrs Attrs, alc tensor.Allocator) ([]*tensor.Tensor, error) {
	if err := need("Flatten", in, 1, 1); err != nil {
		return nil, err
	}
	x := in[0]
	axis := attrs.Int("axis", 1)
	if axis < 0 {
		axis += x.Rank()
	}
	if axis < 0 || axis > x.Rank() {
		return nil, argErr("Flatten", "axis %d out of range for %v", axis, x.Shape())
	}
	rows := 1
	for d := 0; d < axis; d++ {
		rows *= x.Shape()[d]
	}
	cols := x.Numel() / max(rows, 1)
	r, err := x.CloneIn(alc).Reshape(rows, cols)
	if err != nil {
		return nil, argErr("Flatten", "%v", err)
	}
	return []*tensor.Tensor{r}, nil
}

// transposeK permutes dimensions per attribute "perm" (default: reverse).
func transposeK(in []*tensor.Tensor, attrs Attrs, alc tensor.Allocator) ([]*tensor.Tensor, error) {
	if err := need("Transpose", in, 1, 1); err != nil {
		return nil, err
	}
	x := in[0]
	rank := x.Rank()
	perm := attrs.Ints("perm", nil)
	if perm == nil {
		perm = make([]int, rank)
		for i := range perm {
			perm[i] = rank - 1 - i
		}
	}
	if len(perm) != rank {
		return nil, argErr("Transpose", "perm %v does not match rank %d", perm, rank)
	}
	seen := make([]bool, rank)
	outShape := make(tensor.Shape, rank)
	for i, p := range perm {
		if p < 0 || p >= rank || seen[p] {
			return nil, argErr("Transpose", "invalid perm %v", perm)
		}
		seen[p] = true
		outShape[i] = x.Shape()[p]
	}
	// Walk the output in order, with the source strides permuted.
	var buf [walkInline]int
	xs := broadcastStrides(buf[:], x.Shape(), x.Shape())
	src := make([]int, rank)
	for i, p := range perm {
		src[i] = xs[p]
	}
	out := tensor.New(outShape, tensor.AllocUninit(alc, x.Numel()))
	xd, od := x.Data(), out.Data()
	w := newWalk(outShape, nil, src)
	tensor.ParallelRange(w.runs, w.grain(2048), func(lo, hi int) {
		w := newWalk(outShape, nil, src)
		w.copyRuns(od, xd, lo, hi)
	})
	return []*tensor.Tensor{out}, nil
}

// sliceK extracts a sub-tensor using attributes "starts", "ends" and
// optional "axes" (ONNX opset-1 attribute form). Negative indices count
// from the end; ends are clamped.
func sliceK(in []*tensor.Tensor, attrs Attrs, alc tensor.Allocator) ([]*tensor.Tensor, error) {
	if err := need("Slice", in, 1, 1); err != nil {
		return nil, err
	}
	x := in[0]
	starts := attrs.Ints("starts", nil)
	ends := attrs.Ints("ends", nil)
	if starts == nil || ends == nil || len(starts) != len(ends) {
		return nil, argErr("Slice", "starts/ends missing or mismatched")
	}
	axes := attrs.Ints("axes", nil)
	if axes == nil {
		axes = make([]int, len(starts))
		for i := range axes {
			axes[i] = i
		}
	}
	if len(axes) != len(starts) {
		return nil, argErr("Slice", "axes length mismatch")
	}
	rank := x.Rank()
	lo, outShape := make([]int, rank), x.Shape().Clone()
	for i, a := range axes {
		if a < 0 {
			a += rank
		}
		if a < 0 || a >= rank {
			return nil, argErr("Slice", "axis %d out of range", axes[i])
		}
		dim := x.Shape()[a]
		s, e := starts[i], ends[i]
		if s < 0 {
			s += dim
		}
		if e < 0 {
			e += dim
		}
		s, e = min(max(s, 0), dim), min(max(e, 0), dim)
		lo[a], outShape[a] = s, max(e-s, 0)
	}
	var buf [walkInline]int
	xs := broadcastStrides(buf[:], x.Shape(), x.Shape())
	start := 0
	for d, l := range lo {
		start += l * xs[d]
	}
	return []*tensor.Tensor{box(x, outShape, start, xs, alc)}, nil
}

// box copies the box of x with extents dims whose first element is x's
// element start; xs are x's strides, as broadcastStrides gives them.
func box(x *tensor.Tensor, dims tensor.Shape, start int, xs []int, alc tensor.Allocator) *tensor.Tensor {
	out := tensor.New(dims, tensor.AllocUninit(alc, dims.Numel()))
	w := newWalk(dims, nil, xs)
	w.base[1] = start
	w.copyRuns(out.Data(), x.Data(), 0, w.runs)
	return out
}

// gatherK selects entries along attribute "axis" (default 0) using input 1
// as the (float-encoded) index tensor.
func gatherK(in []*tensor.Tensor, attrs Attrs, alc tensor.Allocator) ([]*tensor.Tensor, error) {
	if err := need("Gather", in, 2, 2); err != nil {
		return nil, err
	}
	x, indices := in[0], in[1]
	axis := attrs.Int("axis", 0)
	rank := x.Rank()
	if axis < 0 {
		axis += rank
	}
	if axis < 0 || axis >= rank {
		return nil, argErr("Gather", "axis %d out of range for %v", axis, x.Shape())
	}
	axisLen := x.Shape()[axis]
	outShape := tensor.Shape{}
	outShape = append(outShape, x.Shape()[:axis]...)
	outShape = append(outShape, indices.Shape()...)
	outShape = append(outShape, x.Shape()[axis+1:]...)
	out := tensor.ZerosIn(alc, outShape...)

	outer := 1
	for d := 0; d < axis; d++ {
		outer *= x.Shape()[d]
	}
	inner := 1
	for d := axis + 1; d < rank; d++ {
		inner *= x.Shape()[d]
	}
	xd, od, idxD := x.Data(), out.Data(), indices.Data()
	nIdx := indices.Numel()
	for o := 0; o < outer; o++ {
		for ii := 0; ii < nIdx; ii++ {
			idx := int(idxD[ii])
			if idx < 0 {
				idx += axisLen
			}
			if idx < 0 || idx >= axisLen {
				return nil, argErr("Gather", "index %d out of range [0,%d)", idx, axisLen)
			}
			src := (o*axisLen + idx) * inner
			dst := (o*nIdx + ii) * inner
			copy(od[dst:dst+inner], xd[src:src+inner])
		}
	}
	return []*tensor.Tensor{out}, nil
}

// splitK divides input 0 along attribute "axis" into equal parts (attribute
// "num" or per-part "split" sizes) and returns one output per part.
func splitK(in []*tensor.Tensor, attrs Attrs, alc tensor.Allocator) ([]*tensor.Tensor, error) {
	if err := need("Split", in, 1, 1); err != nil {
		return nil, err
	}
	x := in[0]
	axis := attrs.Int("axis", 0)
	if axis < 0 {
		axis += x.Rank()
	}
	if axis < 0 || axis >= x.Rank() {
		return nil, argErr("Split", "axis out of range for %v", x.Shape())
	}
	axisLen := x.Shape()[axis]
	sizes := attrs.Ints("split", nil)
	if sizes == nil {
		num := attrs.Int("num", 2)
		if num <= 0 || axisLen%num != 0 {
			return nil, argErr("Split", "cannot split %d into %d equal parts", axisLen, num)
		}
		sizes = make([]int, num)
		for i := range sizes {
			sizes[i] = axisLen / num
		}
	}
	total := 0
	for _, s := range sizes {
		if s <= 0 {
			return nil, argErr("Split", "non-positive part size %v", sizes)
		}
		total += s
	}
	if total != axisLen {
		return nil, argErr("Split", "sizes %v sum to %d, want %d", sizes, total, axisLen)
	}

	// Each part is a Slice along the axis.
	var buf [walkInline]int
	xs := broadcastStrides(buf[:], x.Shape(), x.Shape())
	shape := x.Shape().Clone()
	outs := make([]*tensor.Tensor, len(sizes))
	offset := 0
	for p, sz := range sizes {
		shape[axis] = sz
		outs[p] = box(x, shape, offset*xs[axis], xs, alc)
		offset += sz
	}
	return outs, nil
}

// unsqueezeK inserts size-1 dimensions at the attribute "axes" positions.
func unsqueezeK(in []*tensor.Tensor, attrs Attrs, alc tensor.Allocator) ([]*tensor.Tensor, error) {
	if err := need("Unsqueeze", in, 1, 1); err != nil {
		return nil, err
	}
	x := in[0]
	axes := attrs.Ints("axes", nil)
	outRank := x.Rank() + len(axes)
	insert := make([]bool, outRank)
	for _, a := range axes {
		if a < 0 {
			a += outRank
		}
		if a < 0 || a >= outRank || insert[a] {
			return nil, argErr("Unsqueeze", "invalid axes %v", axes)
		}
		insert[a] = true
	}
	shape := make([]int, 0, outRank)
	src := 0
	for d := 0; d < outRank; d++ {
		if insert[d] {
			shape = append(shape, 1)
		} else {
			shape = append(shape, x.Shape()[src])
			src++
		}
	}
	r, err := x.CloneIn(alc).Reshape(shape...)
	if err != nil {
		return nil, argErr("Unsqueeze", "%v", err)
	}
	return []*tensor.Tensor{r}, nil
}

// squeezeK removes size-1 dimensions, either those in attribute "axes" or
// all of them when absent.
func squeezeK(in []*tensor.Tensor, attrs Attrs, alc tensor.Allocator) ([]*tensor.Tensor, error) {
	if err := need("Squeeze", in, 1, 1); err != nil {
		return nil, err
	}
	x := in[0]
	axes := attrs.Ints("axes", nil)
	remove := make([]bool, x.Rank())
	if axes == nil {
		for d, e := range x.Shape() {
			remove[d] = e == 1
		}
	} else {
		for _, a := range axes {
			if a < 0 {
				a += x.Rank()
			}
			if a < 0 || a >= x.Rank() || x.Shape()[a] != 1 {
				return nil, argErr("Squeeze", "axis %v is not a unit dimension of %v", axes, x.Shape())
			}
			remove[a] = true
		}
	}
	shape := []int{}
	for d, e := range x.Shape() {
		if !remove[d] {
			shape = append(shape, e)
		}
	}
	r, err := x.CloneIn(alc).Reshape(shape...)
	if err != nil {
		return nil, argErr("Squeeze", "%v", err)
	}
	return []*tensor.Tensor{r}, nil
}

// shapeOpK returns the input's shape as a rank-1 float tensor (floats stand
// in for int64 in this engine).
func shapeOpK(in []*tensor.Tensor, _ Attrs, alc tensor.Allocator) ([]*tensor.Tensor, error) {
	if err := need("Shape", in, 1, 1); err != nil {
		return nil, err
	}
	s := in[0].Shape()
	out := tensor.ZerosIn(alc, len(s))
	for i, d := range s {
		out.Data()[i] = float32(d)
	}
	return []*tensor.Tensor{out}, nil
}

// constantK materializes its attribute "value" ([]float32) with optional
// attribute "shape"; it has no tensor inputs.
func constantK(in []*tensor.Tensor, attrs Attrs, alc tensor.Allocator) ([]*tensor.Tensor, error) {
	if len(in) != 0 {
		return nil, argErr("Constant", "takes no inputs, got %d", len(in))
	}
	vals := attrs.Floats("value", nil)
	if vals == nil {
		return nil, argErr("Constant", "missing value attribute")
	}
	shape := attrs.Ints("shape", []int{len(vals)})
	s := tensor.NewShape(shape...)
	if s.Numel() != len(vals) {
		return nil, argErr("Constant", "shape %v incompatible with %d values", s, len(vals))
	}
	d := tensor.Alloc(alc, len(vals))
	copy(d, vals)
	return []*tensor.Tensor{tensor.New(s, d)}, nil
}
