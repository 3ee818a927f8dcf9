package ops

import (
	"math"

	"repro/internal/tensor"
)

// The elementwise kernels in this file are the memory-bound glue between
// the GEMM-shaped heavy ops. They run as specialized slice loops — no
// per-element function pointer — and the same loops back the fused-chain
// kernel (fused.go) and the bound unary ops' in-place form, so every way
// an activation can execute computes bit-identical values.

// uninitLike allocates an output tensor with t's shape whose contents the
// caller fully overwrites, skipping the zero fill a recycled arena buffer
// would otherwise pay.
func uninitLike(a tensor.Allocator, t *tensor.Tensor) *tensor.Tensor {
	return tensor.New(t.Shape(), tensor.AllocUninit(a, t.Numel()))
}

// Specialized unary slice loops, one per op. dst and src must be
// index-aligned and may alias (dst == src is the in-place path).

// reluLoop is Relu: max(x, 0).
func reluLoop(dst, src []float32) {
	// max keeps the loop branchless: random-sign activations mispredict a
	// comparison ~50% of the time, which dominates a memory-bound sweep.
	for i, v := range src {
		dst[i] = max(v, 0)
	}
}

func leakyReluLoop(dst, src []float32, alpha float32) {
	for i, v := range src {
		if v < 0 {
			v = alpha * v
		}
		dst[i] = v
	}
}

func clipLoop(dst, src []float32, lo, hi float32) {
	for i, v := range src {
		dst[i] = min(max(v, lo), hi)
	}
}

// sigmoidLoop is Sigmoid: 1/(1+exp(-x)).
func sigmoidLoop(dst, src []float32) {
	for i, v := range src {
		dst[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
}

// tanhLoop is Tanh, the hyperbolic tangent.
func tanhLoop(dst, src []float32) {
	for i, v := range src {
		dst[i] = float32(math.Tanh(float64(v)))
	}
}

// expLoop is Exp: e^x.
func expLoop(dst, src []float32) {
	for i, v := range src {
		dst[i] = float32(math.Exp(float64(v)))
	}
}

// sqrtLoop is Sqrt, the square root (NaN for negative inputs, as ONNX).
func sqrtLoop(dst, src []float32) {
	for i, v := range src {
		dst[i] = float32(math.Sqrt(float64(v)))
	}
}

// erfLoop is Erf, the Gauss error function, the primitive BERT's GELU
// decomposes to.
func erfLoop(dst, src []float32) {
	for i, v := range src {
		dst[i] = float32(math.Erf(float64(v)))
	}
}

// negLoop is Neg: -x.
func negLoop(dst, src []float32) {
	for i, v := range src {
		dst[i] = -v
	}
}

// Specialized binary slice loops; dst may alias a or b.

func addLoop(dst, a, b []float32) {
	for i, v := range a {
		dst[i] = v + b[i]
	}
}

func subLoop(dst, a, b []float32) {
	for i, v := range a {
		dst[i] = v - b[i]
	}
}

func mulLoop(dst, a, b []float32) {
	for i, v := range a {
		dst[i] = v * b[i]
	}
}

func divLoop(dst, a, b []float32) {
	for i, v := range a {
		dst[i] = v / b[i]
	}
}

// Scalar-broadcast loops: one operand is a single value hoisted out of the
// loop, so the sweep touches exactly one tensor.

func addScalarLoop(dst, a []float32, s float32) {
	for i, v := range a {
		dst[i] = v + s
	}
}

func subScalarLoop(dst, a []float32, s float32) {
	for i, v := range a {
		dst[i] = v - s
	}
}

func rsubScalarLoop(dst []float32, s float32, b []float32) {
	for i, v := range b {
		dst[i] = s - v
	}
}

func mulScalarLoop(dst, a []float32, s float32) {
	for i, v := range a {
		dst[i] = v * s
	}
}

func divScalarLoop(dst, a []float32, s float32) {
	for i, v := range a {
		dst[i] = v / s
	}
}

func rdivScalarLoop(dst []float32, s float32, b []float32) {
	for i, v := range b {
		dst[i] = s / v
	}
}

// parallelUnary sweeps loop over index-aligned dst/src chunks across the
// intra-op workers.
func parallelUnary(loop func(dst, src []float32), dst, src []float32) {
	tensor.ParallelRange(len(src), 4096, func(lo, hi int) {
		loop(dst[lo:hi], src[lo:hi])
	})
}

// unaryOp binds a single-input elementwise op whose loop needs no
// attributes.
func unaryOp(op string, loop func(dst, src []float32)) binder {
	return func(Attrs, []*tensor.Tensor) *Bound { return unaryBound(op, loop) }
}

// unaryBound binds a single-input elementwise op around its slice loop: a
// run sweeps in[0] into a fresh output or, in place, into in[0]'s own
// buffer. A nil loop is Identity: a copy, so downstream mutation hazards
// cannot arise, or in place nothing at all.
func unaryBound(op string, loop func(dst, src []float32)) *Bound {
	return &Bound{inPlace: true, run: func(in []*tensor.Tensor, a tensor.Allocator, _ *Prepacked, inPlace bool) ([]*tensor.Tensor, error) {
		if err := need(op, in, 1, 1); err != nil {
			return nil, err
		}
		x := in[0]
		switch {
		case inPlace:
			if loop != nil {
				parallelUnary(loop, x.Data(), x.Data())
			}
			return []*tensor.Tensor{tensor.New(x.Shape(), x.Data())}, nil
		case loop == nil:
			return []*tensor.Tensor{x.CloneIn(a)}, nil
		}
		out := uninitLike(a, x)
		parallelUnary(loop, out.Data(), x.Data())
		return []*tensor.Tensor{out}, nil
	}}
}

// bindLeakyRelu binds LeakyRelu: x for x>=0 else alpha*x (attribute alpha,
// default 0.01).
func bindLeakyRelu(attrs Attrs, _ []*tensor.Tensor) *Bound {
	alpha := float32(attrs.Float("alpha", 0.01))
	return unaryBound("LeakyRelu", func(dst, src []float32) { leakyReluLoop(dst, src, alpha) })
}

// bindClip binds Clip: x bounded to [min, max] given as attributes (ONNX
// opset-6 style).
func bindClip(attrs Attrs, _ []*tensor.Tensor) *Bound {
	lo := float32(attrs.Float("min", -math.MaxFloat32))
	hi := float32(attrs.Float("max", math.MaxFloat32))
	return unaryBound("Clip", func(dst, src []float32) { clipLoop(dst, src, lo, hi) })
}

// binaryLoops bundles the specialized sweeps of one binary operator: the
// same-layout vector form, both scalar-broadcast forms, and the generic
// per-element function for the stride-walking broadcast fallback.
type binaryLoops struct {
	vec func(dst, a, b []float32)
	vs  func(dst, a []float32, s float32) // b is a single value
	sv  func(dst []float32, s float32, b []float32)
	f   func(a, b float32) float32
}

var addLoops = binaryLoops{addLoop, addScalarLoop,
	func(dst []float32, s float32, b []float32) { addScalarLoop(dst, b, s) },
	func(a, b float32) float32 { return a + b }}

var subLoops = binaryLoops{subLoop, subScalarLoop, rsubScalarLoop,
	func(a, b float32) float32 { return a - b }}

var mulLoops = binaryLoops{mulLoop, mulScalarLoop,
	func(dst []float32, s float32, b []float32) { mulScalarLoop(dst, b, s) },
	func(a, b float32) float32 { return a * b }}

var divLoops = binaryLoops{divLoop, divScalarLoop, rdivScalarLoop,
	func(a, b float32) float32 { return a / b }}

// binaryFast builds an AllocKernel with NumPy broadcasting that picks the
// cheapest sweep available: identical shapes and broadcasts that do not
// replicate any element (mixed ranks differing only in leading 1-dims) run
// the flat vector loop; scalar operands run a hoisted-scalar loop; only
// genuine element replication pays the per-element stride index math.
func binaryFast(op string, loops binaryLoops) AllocKernel {
	return func(in []*tensor.Tensor, _ Attrs, alc tensor.Allocator) ([]*tensor.Tensor, error) {
		if err := need(op, in, 2, 2); err != nil {
			return nil, err
		}
		a, b := in[0], in[1]
		as, bs := a.Shape(), b.Shape()
		if as.Equal(bs) { // identical shapes: one flat sweep
			out := uninitLike(alc, a)
			ad, bd, od := a.Data(), b.Data(), out.Data()
			tensor.ParallelRange(len(od), 4096, func(lo, hi int) {
				loops.vec(od[lo:hi], ad[lo:hi], bd[lo:hi])
			})
			return []*tensor.Tensor{out}, nil
		}
		os, err := tensor.Broadcast(as, bs)
		if err != nil {
			return nil, argErr(op, "%v", err)
		}
		n := os.Numel()
		ad, bd := a.Data(), b.Data()
		switch {
		case len(bd) == 1 && len(ad) == n:
			out := tensor.New(os, tensor.AllocUninit(alc, n))
			od, s := out.Data(), bd[0]
			tensor.ParallelRange(n, 4096, func(lo, hi int) {
				loops.vs(od[lo:hi], ad[lo:hi], s)
			})
			return []*tensor.Tensor{out}, nil
		case len(ad) == 1 && len(bd) == n:
			out := tensor.New(os, tensor.AllocUninit(alc, n))
			od, s := out.Data(), ad[0]
			tensor.ParallelRange(n, 4096, func(lo, hi int) {
				loops.sv(od[lo:hi], s, bd[lo:hi])
			})
			return []*tensor.Tensor{out}, nil
		case len(ad) == n && len(bd) == n:
			// Ranks differ only by leading 1-extents: row-major layouts
			// coincide, so the flat vector loop is exact.
			out := tensor.New(os, tensor.AllocUninit(alc, n))
			od := out.Data()
			tensor.ParallelRange(n, 4096, func(lo, hi int) {
				loops.vec(od[lo:hi], ad[lo:hi], bd[lo:hi])
			})
			return []*tensor.Tensor{out}, nil
		}
		return broadcastStrided(op, loops.f, a, b, os, alc)
	}
}

// broadcastStrided is the general broadcasting path: per-element stride
// index math, reached only when the broadcast genuinely replicates data.
func broadcastStrided(op string, f func(a, b float32) float32, a, b *tensor.Tensor, os tensor.Shape, alc tensor.Allocator) ([]*tensor.Tensor, error) {
	out := tensor.ZerosIn(alc, os...)
	od := out.Data()
	oStrides := os.Strides()
	aIdx := broadcastStrides(a.Shape(), os)
	bIdx := broadcastStrides(b.Shape(), os)
	ad, bd := a.Data(), b.Data()
	n := len(od)
	tensor.ParallelRange(n, 1024, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai, bi := 0, 0
			rem := i
			for d := 0; d < len(os); d++ {
				pos := rem / oStrides[d]
				rem %= oStrides[d]
				ai += pos * aIdx[d]
				bi += pos * bIdx[d]
			}
			od[i] = f(ad[ai], bd[bi])
		}
	})
	return []*tensor.Tensor{out}, nil
}

// binary builds an AllocKernel applying f element-wise with NumPy
// broadcasting through a function pointer — the reference form retained
// for Pow and the devirtualization micro-benchmarks.
func binary(op string, f func(a, b float32) float32) AllocKernel {
	return func(in []*tensor.Tensor, _ Attrs, alc tensor.Allocator) ([]*tensor.Tensor, error) {
		if err := need(op, in, 2, 2); err != nil {
			return nil, err
		}
		a, b := in[0], in[1]
		as, bs := a.Shape(), b.Shape()
		if as.Equal(bs) { // fast path
			out := tensor.ZerosLikeIn(alc, a)
			ad, bd, od := a.Data(), b.Data(), out.Data()
			tensor.ParallelRange(len(od), 4096, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					od[i] = f(ad[i], bd[i])
				}
			})
			return []*tensor.Tensor{out}, nil
		}
		os, err := tensor.Broadcast(as, bs)
		if err != nil {
			return nil, argErr(op, "%v", err)
		}
		return broadcastStrided(op, f, a, b, os, alc)
	}
}

// broadcastStrides returns per-output-dimension strides into a tensor of
// shape s being broadcast to shape out: 0 stride where s has extent 1.
func broadcastStrides(s, out tensor.Shape) []int {
	strides := make([]int, len(out))
	sStrides := s.Strides()
	offset := len(out) - len(s)
	for d := range out {
		if d < offset {
			strides[d] = 0
			continue
		}
		sd := d - offset
		if s[sd] == 1 && out[d] != 1 {
			strides[d] = 0
		} else {
			strides[d] = sStrides[sd]
		}
	}
	return strides
}

// addK is element-wise a+b with broadcasting.
var addK = binaryFast("Add", addLoops)

// subK is element-wise a-b with broadcasting.
var subK = binaryFast("Sub", subLoops)

// mulK is element-wise a*b with broadcasting.
var mulK = binaryFast("Mul", mulLoops)

// divK is element-wise a/b with broadcasting.
var divK = binaryFast("Div", divLoops)

// powK is element-wise a^b with broadcasting. The math.Pow call dominates,
// so it keeps the function-pointer builder.
var powK = binary("Pow", func(a, b float32) float32 {
	return float32(math.Pow(float64(a), float64(b)))
})

// softmaxK normalizes along the given axis (attribute "axis", default -1)
// with the usual max-subtraction for numerical stability.
func softmaxK(in []*tensor.Tensor, attrs Attrs, a2 tensor.Allocator) ([]*tensor.Tensor, error) {
	if err := need("Softmax", in, 1, 1); err != nil {
		return nil, err
	}
	x := in[0]
	s := x.Shape()
	axis := attrs.Int("axis", -1)
	if axis < 0 {
		axis += s.Rank()
	}
	if axis < 0 || axis >= s.Rank() {
		return nil, argErr("Softmax", "axis out of range for %v", s)
	}
	inner := 1
	for d := axis + 1; d < s.Rank(); d++ {
		inner *= s[d]
	}
	axisN := s[axis]
	outer := x.Numel() / maxInt(inner*axisN, 1)
	out := tensor.ZerosLikeIn(a2, x)
	xd, od := x.Data(), out.Data()
	tensor.ParallelFor(outer*inner, 16, func(oi int) {
		o := oi / inner
		i := oi % inner
		base := o*axisN*inner + i
		maxV := float32(negInf)
		for a := 0; a < axisN; a++ {
			if v := xd[base+a*inner]; v > maxV {
				maxV = v
			}
		}
		var sum float64
		for a := 0; a < axisN; a++ {
			e := math.Exp(float64(xd[base+a*inner] - maxV))
			od[base+a*inner] = float32(e)
			sum += e
		}
		if sum == 0 {
			sum = 1
		}
		inv := float32(1 / sum)
		for a := 0; a < axisN; a++ {
			od[base+a*inner] *= inv
		}
	})
	return []*tensor.Tensor{out}, nil
}
