package ops

import (
	"math"

	"repro/internal/tensor"
)

// The elementwise ops in this file are the memory-bound glue between the
// GEMM-shaped heavy ops. Each is a specialized slice loop — no per-element
// function pointer — listed once in the elementwise table. A single node
// runs as a one-stage program through the same engine as a fused chain
// (fused.go), so every way an activation can execute computes
// bit-identical values.

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

// leakyReluLoop is LeakyRelu: x for x >= 0, else alpha*x.
func leakyReluLoop(dst, src []float32, alpha, _ float32) {
	for i, v := range src {
		if v < 0 {
			v = alpha * v
		}
		dst[i] = v
	}
}

// clipLoop is Clip: x bounded to [lo, hi].
func clipLoop(dst, src []float32, lo, hi float32) {
	for i, v := range src {
		dst[i] = min(max(v, lo), hi)
	}
}

// sigmoidLoop is Sigmoid: 1/(1+exp(-x)).
func sigmoidLoop(dst, src []float32) {
	for i, v := range src {
		dst[i] = 1 / (1 + exp32(-v))
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
		dst[i] = exp32(v)
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
		dst[i] = erf32(v)
	}
}

// negLoop is Neg: -x.
func negLoop(dst, src []float32) {
	for i, v := range src {
		dst[i] = -v
	}
}

// identityLoop is Identity: a copy, and nothing at all in place.
func identityLoop(dst, src []float32) {
	if len(src) > 0 && &dst[0] != &src[0] {
		copy(dst, src)
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

// binaryLoops bundles the specialized sweeps of one binary operator: the
// same-layout vector form and both scalar-broadcast forms. The strided
// broadcast path runs them too, one call per run.
type binaryLoops struct {
	vec func(dst, a, b []float32)
	vs  func(dst, a []float32, s float32) // b is a single value
	sv  func(dst []float32, s float32, b []float32)
}

var addLoops = binaryLoops{addLoop, addScalarLoop,
	func(dst []float32, s float32, b []float32) { addScalarLoop(dst, b, s) }}

var subLoops = binaryLoops{subLoop, subScalarLoop, rsubScalarLoop}

var mulLoops = binaryLoops{mulLoop, mulScalarLoop,
	func(dst []float32, s float32, b []float32) { mulScalarLoop(dst, b, s) }}

var divLoops = binaryLoops{divLoop, divScalarLoop, rdivScalarLoop}

// pow32 is Pow on one pair: a^b, computed in float64.
func pow32(a, b float32) float32 { return float32(math.Pow(float64(a), float64(b))) }

var powLoops = binaryLoops{
	func(dst, a, b []float32) {
		for i, v := range a {
			dst[i] = pow32(v, b[i])
		}
	},
	func(dst, a []float32, s float32) {
		for i, v := range a {
			dst[i] = pow32(v, s)
		}
	},
	func(dst []float32, s float32, b []float32) {
		for i, v := range b {
			dst[i] = pow32(s, v)
		}
	}}

// unaryLoop is a single-input op's sweep dst = op(src) over index-aligned
// slices, which may alias; p0 and p1 are the op's parameters (params).
type unaryLoop func(dst, src []float32, p0, p1 float32)

// plain adapts a sweep without parameters to a unaryLoop.
func plain(loop func(dst, src []float32)) unaryLoop {
	return func(dst, src []float32, _, _ float32) { loop(dst, src) }
}

// elementwiseOp is an op's entry in the elementwise table: a unary op's
// sweep or a binary op's loops, and whether it may be a FusedElementwise
// stage.
type elementwiseOp struct {
	unary  unaryLoop
	binary *binaryLoops // nil for a unary op
	chain  bool
}

// elementwise is the one table of elementwise ops. A node of any of them
// binds as a one-stage program and every FusedElementwise stage decodes to
// one of its entries; run (fused.go) executes both.
var elementwise = map[string]elementwiseOp{
	"Relu":      {unary: plain(reluLoop), chain: true},
	"LeakyRelu": {unary: leakyReluLoop, chain: true},
	"Sigmoid":   {unary: plain(sigmoidLoop), chain: true},
	"Tanh":      {unary: plain(tanhLoop), chain: true},
	"Clip":      {unary: clipLoop, chain: true},
	"Exp":       {unary: plain(expLoop), chain: true},
	"Sqrt":      {unary: plain(sqrtLoop), chain: true},
	"Erf":       {unary: plain(erfLoop), chain: true},
	"Neg":       {unary: plain(negLoop), chain: true},
	"Identity":  {unary: plain(identityLoop)},
	"Add":       {binary: &addLoops, chain: true},
	"Sub":       {binary: &subLoops, chain: true},
	"Mul":       {binary: &mulLoops, chain: true},
	"Div":       {binary: &divLoops, chain: true},
	"Pow":       {binary: &powLoops},
}

// paramKeys names the attributes that hold an op's parameters: LeakyRelu's
// alpha, Clip's min and max.
type paramKeys struct{ alpha, min, max string }

// nodeKeys are the parameter attributes of an ONNX node (opset-6 style
// Clip: bounds as attributes).
var nodeKeys = paramKeys{"alpha", "min", "max"}

// params decodes an elementwise op's parameters from attrs: LeakyRelu's
// alpha (default 0.01) in p0, Clip's bounds (default the whole float32
// range) in p0 and p1, zeros for every other op.
func params(op string, attrs Attrs, k paramKeys) (p0, p1 float64) {
	switch op {
	case "LeakyRelu":
		return attrs.Float(k.alpha, 0.01), 0
	case "Clip":
		return attrs.Float(k.min, -math.MaxFloat32), attrs.Float(k.max, math.MaxFloat32)
	}
	return 0, 0
}

// bindElementwise binds a node of the table op as the one-stage program
// [op], a binary op's second input being the stage's extra operand. Unary
// ops have an in-place form; binary ops do not.
func bindElementwise(op string) binder {
	e := elementwise[op]
	return func(attrs Attrs, _ []*tensor.Tensor) *Bound {
		p0, p1 := params(op, attrs, nodeKeys)
		st := stage{elementwiseOp: e, op: op, arg: -1, p0: float32(p0), p1: float32(p1)}
		arity := 1
		if e.binary != nil {
			st.arg, arity = 1, 2
		}
		return program(op, arity, arity, []stage{st}, e.binary == nil, nil)
	}
}

// broadcastBinary runs a binary op on operands of different shapes with
// NumPy broadcasting. It walks the output shape with each operand's
// broadcast strides. Inside a run an operand either moves with the output
// or, at stride 0, holds one value, so every run is one call of the op's
// vector or scalar loop: a [...,N]+[N] Add is one vector call per row.
// Layouts that merge to a single run (a scalar operand, or shapes that
// differ only by leading 1-extents) split that run across the workers.
func broadcastBinary(op string, loops *binaryLoops, a, b *tensor.Tensor, alc tensor.Allocator) (*tensor.Tensor, error) {
	os, err := tensor.Broadcast(a.Shape(), b.Shape())
	if err != nil {
		return nil, argErr(op, "%v", err)
	}
	out := tensor.New(os, tensor.AllocUninit(alc, os.Numel()))
	od, ad, bd := out.Data(), a.Data(), b.Data()
	as, bs := broadcastStrides(nil, a.Shape(), os), broadcastStrides(nil, b.Shape(), os)
	w := newWalk(os, nil, as, bs)
	if w.runs == 1 {
		sa, sb := w.step[1], w.step[2]
		tensor.ParallelRange(w.n, 4096, func(lo, hi int) {
			binaryRun(loops, od[lo:hi], ad[lo*sa:], bd[lo*sb:], sa, sb)
		})
		return out, nil
	}
	tensor.ParallelRange(w.runs, w.grain(1024), func(lo, hi int) {
		w := newWalk(os, nil, as, bs)
		for w.seek(lo, hi); w.left > 0; w.next() {
			binaryRun(loops, od[w.off[0]:][:w.n], ad[w.off[1]:], bd[w.off[2]:], w.step[1], w.step[2])
		}
	})
	return out, nil
}

// binaryRun computes one run dst = a op b of a broadcasting binary op; an
// operand whose step is 0 holds one value.
func binaryRun(loops *binaryLoops, dst, a, b []float32, stepA, stepB int) {
	switch {
	case stepA == 0:
		loops.sv(dst, a[0], b[:len(dst)])
	case stepB == 0:
		loops.vs(dst, a[:len(dst)], b[0])
	default:
		loops.vec(dst, a[:len(dst)], b[:len(dst)])
	}
}

// broadcastStrides returns, in buf when they fit, the strides into a
// row-major tensor of shape s broadcast to shape out, one per dimension of
// out: s is right-aligned against out, and a dimension s lacks or has at
// extent 1 gets stride 0. With out = s they are s's own strides as a walk
// reads them, since a walk drops extent-1 dimensions.
func broadcastStrides(buf []int, s, out tensor.Shape) []int {
	strides := append(buf[:0], out...)
	clear(strides)
	acc := 1
	for d := len(s) - 1; d >= 0; d-- {
		if s[d] != 1 {
			strides[d+len(out)-len(s)] = acc
		}
		acc *= s[d]
	}
	return strides
}

// softmaxK normalizes along the given axis (attribute "axis", default -1)
// with the usual max-subtraction for numerical stability. One loop runs
// every axis: along the last one (inner = 1) the rows are contiguous and
// taken in order. Every output element is written.
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
	outer := x.Numel() / max(inner*axisN, 1)
	out := uninitLike(a2, x)
	xd, od := x.Data(), out.Data()
	// Rows are numbered o·inner+i; a chunk divides once, then counts i
	// and o up, so no row pays a division.
	tensor.ParallelRange(outer*inner, max(4096/max(axisN, 1), 1), func(lo, hi int) {
		o, i := lo/inner, lo%inner
		for range hi - lo {
			base := o*axisN*inner + i
			softmaxRow(od[base:], xd[base:][:(axisN-1)*inner+1], inner)
			if i++; i == inner {
				o, i = o+1, 0
			}
		}
	})
	return []*tensor.Tensor{out}, nil
}

// softmaxRow writes to dst the softmax of the row of x whose elements lie
// stride apart from x[0] to the end of x. The row's maximum starts at the
// lowest finite float32 and NaN never raises it, so a row holding NaN or
// +Inf gives NaN, and a row of only -Inf sums to 0 and keeps its zeros.
func softmaxRow(dst, x []float32, stride int) {
	m := float32(-math.MaxFloat32)
	for a := 0; a < len(x); a += stride {
		if v := x[a]; v > m {
			m = v
		}
	}
	var sum float32
	for a := 0; a < len(x); a += stride {
		e := exp32(x[a] - m)
		dst[a] = e
		sum += e
	}
	if sum == 0 {
		return
	}
	inv := 1 / sum
	for a := 0; a < len(x); a += stride {
		dst[a] *= inv
	}
}
