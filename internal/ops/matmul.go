package ops

import (
	"fmt"
	"sync/atomic"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// MatMul views. The fuse pass (internal/passes) folds a Reshape→Transpose
// chain on a MatMul operand, and a Transpose→Reshape chain on its output,
// into the node as these attributes, and the kernel then reads the operand
// (writes the output) in place through strides — XLA's dot_general
// dimension numbers, cuBLAS's strided-batched GEMM — so the chain's copies
// are gone. An operand view reshapes the stored tensor to its dims (ONNX
// Reshape rules: 0 copies, -1 infers) and then permutes it by its perm; the
// output view permutes the product by its perm and then reshapes it. A
// missing dims or perm attribute is the identity.
const (
	AttrViewADims = "a_dims"
	AttrViewAPerm = "a_perm"
	AttrViewBDims = "b_dims"
	AttrViewBPerm = "b_perm"
	AttrViewYPerm = "y_perm"
	AttrViewYDims = "y_dims"
)

// ViewA, ViewB and ViewY name a MatMul's two operands and its output.
const (
	ViewA = iota
	ViewB
	ViewY
)

// ViewKeys returns the dims and perm attribute keys of the view on which
// (ViewA, ViewB or ViewY).
func ViewKeys(which int) (dims, perm string) {
	switch which {
	case ViewA:
		return AttrViewADims, AttrViewAPerm
	case ViewB:
		return AttrViewBDims, AttrViewBPerm
	}
	return AttrViewYDims, AttrViewYPerm
}

// GemmAddressable reports whether the GEMM core can address a MatMul
// operand (ViewA, ViewB) or output (ViewY) permuted by perm through
// strides alone. The permuted row-major layout's unit-stride axis (its
// last) must stay among an operand's last two axes, read with lda/ldb and
// a trans flag, and must stay last on the output, written with ldc. Any
// other axis is a batch axis the walker steps with its own stride. perm
// must be a permutation of rank >= 2.
func GemmAddressable(which int, perm []int) bool {
	r := len(perm)
	if r < 2 || !IsPerm(perm) {
		return false
	}
	if which == ViewY {
		return perm[r-1] == r-1
	}
	return perm[r-1] == r-1 || perm[r-2] == r-1
}

// HasView reports whether attrs record a view on which.
func HasView(attrs Attrs, which int) bool {
	dk, pk := ViewKeys(which)
	_, d := attrs[dk]
	_, p := attrs[pk]
	return d || p
}

// IsPerm reports whether p is a permutation of 0..len(p)-1.
func IsPerm(p []int) bool {
	seen := make([]bool, len(p))
	for _, d := range p {
		if d < 0 || d >= len(p) || seen[d] {
			return false
		}
		seen[d] = true
	}
	return true
}

// view is one decoded MatMul view; nil dims or perm is the identity.
type view struct{ dims, perm []int }

// matMul is one MatMul node, decoded once by bindMatMul: its writeback
// activation and the views on its operands and output, plus the geometry
// of the input shapes it last ran on, which every run of a serving plan
// shares.
type matMul struct {
	epi   kernels.Epilogue
	views [3]view
	last  atomic.Pointer[mmGeom]
}

// bindMatMul binds a MatMul node. A view the GEMM core cannot address makes
// every run fail; the fuse pass never records one.
func bindMatMul(attrs Attrs, consts []*tensor.Tensor) *Bound {
	mm, err := decodeMatMul(attrs)
	return &Bound{Packed: prepack("MatMul", attrs, consts), run: func(in []*tensor.Tensor, a tensor.Allocator, pp *Prepacked, _ bool) ([]*tensor.Tensor, error) {
		if err != nil {
			return nil, err
		}
		return mm.run(in, a, pp)
	}}
}

// decodeMatMul reads a MatMul node's epilogue and views.
func decodeMatMul(attrs Attrs) (*matMul, error) {
	mm := &matMul{epi: epilogueOf(attrs)}
	for which := range mm.views {
		dk, pk := ViewKeys(which)
		v := view{dims: attrs.Ints(dk, nil), perm: attrs.Ints(pk, nil)}
		if v.perm != nil && !GemmAddressable(which, v.perm) {
			return nil, argErr("MatMul", "%s %v is not GEMM-addressable", pk, v.perm)
		}
		mm.views[which] = v
	}
	return mm, nil
}

// operand resolves the logical shape and element strides of a tensor of
// stored shape s read through v: reshaped to v.dims, then permuted.
func (v view) operand(s tensor.Shape) (tensor.Shape, []int, error) {
	d := s
	if v.dims != nil {
		var err error
		if d, err = reshapeTo(s, v.dims); err != nil {
			return nil, nil, err
		}
	}
	st := d.Strides()
	if v.perm == nil {
		return d, st, nil
	}
	if len(v.perm) != len(d) {
		return nil, nil, fmt.Errorf("perm %v does not match rank %d", v.perm, len(d))
	}
	shape, strides := make(tensor.Shape, len(d)), make([]int, len(d))
	for i, p := range v.perm {
		shape[i], strides[i] = d[p], st[p]
	}
	return shape, strides, nil
}

// output resolves the stored output shape of a product of shape r written
// through v, and the product's element strides in that storage.
func (v view) output(r tensor.Shape) (tensor.Shape, []int, error) {
	t, strides := r, r.Strides()
	if v.perm != nil {
		if len(v.perm) != len(r) {
			return nil, nil, fmt.Errorf("perm %v does not match rank %d", v.perm, len(r))
		}
		t = make(tensor.Shape, len(r))
		for i, p := range v.perm {
			t[i] = r[p]
		}
		tst := t.Strides()
		for i, p := range v.perm {
			strides[p] = tst[i]
		}
	}
	if v.dims == nil {
		return t, strides, nil
	}
	out, err := reshapeTo(t, v.dims)
	return out, strides, err
}

// gemmLead returns the leading dimension and trans flag that address the
// trailing matrix of a strided operand of logical shape s: unit stride on
// the last axis reads it as stored, on the second-to-last as its
// transpose. An extent-1 axis takes any stride.
func gemmLead(s tensor.Shape, st []int) (ld int, trans, ok bool) {
	r := len(s)
	switch {
	case st[r-1] == 1 || s[r-1] == 1:
		return st[r-2], false, true
	case st[r-2] == 1 || s[r-2] == 1:
		return st[r-1], true, true
	}
	return 0, false, false
}

// mmGeom is one MatMul call's resolved geometry. It is immutable once
// built.
type mmGeom struct {
	as, bs  tensor.Shape // the input shapes it was resolved for
	m, n, k int
	batch   tensor.Shape // the broadcast batch shape of the product
	str     [3][]int     // A's, B's and Y's element strides over batch (0 broadcasts)
	ld      [3]int       // lda, ldb, ldc
	trans   [2]bool      // transA, transB
	bShared bool         // one B matrix serves every product
	out     tensor.Shape // the stored output shape
}

// geometry resolves the product of operands of stored shapes as and bs
// through mm's views, reusing the last call's when the shapes match.
func (mm *matMul) geometry(as, bs tensor.Shape) (*mmGeom, error) {
	if g := mm.last.Load(); g != nil && g.as.Equal(as) && g.bs.Equal(bs) {
		return g, nil
	}
	g, err := mm.resolve(as, bs)
	if err == nil {
		mm.last.Store(g)
	}
	return g, err
}

// resolve builds the geometry of operands of stored shapes as and bs.
func (mm *matMul) resolve(as, bs tensor.Shape) (*mmGeom, error) {
	g := mmGeom{as: as.Clone(), bs: bs.Clone()}
	var shapes [2]tensor.Shape
	var strides [2][]int
	for i, s := range [2]tensor.Shape{as, bs} {
		sh, st, err := mm.views[i].operand(s)
		if err != nil {
			return nil, argErr("MatMul", "input %d view: %v", i, err)
		}
		if sh.Rank() < 2 {
			return nil, argErr("MatMul", "want rank >= 2 operands, got %v and %v", as, bs)
		}
		ld, trans, ok := gemmLead(sh, st)
		if !ok {
			return nil, argErr("MatMul", "input %d view %v has no unit-stride matrix axis", i, sh)
		}
		shapes[i], strides[i], g.ld[i], g.trans[i] = sh, st, ld, trans
	}
	a, b := shapes[0], shapes[1]
	ra, rb := a.Rank(), b.Rank()
	g.m, g.k, g.n = a[ra-2], a[ra-1], b[rb-1]
	if b[rb-2] != g.k {
		return nil, argErr("MatMul", "inner dimensions differ: %v x %v", a, b)
	}
	var err error
	if g.batch, err = tensor.Broadcast(a[:ra-2], b[:rb-2]); err != nil {
		return nil, argErr("MatMul", "batch dims incompatible: %v", err)
	}
	g.bShared = b[:rb-2].Numel() == 1
	nb := len(g.batch)
	r := append(g.batch.Clone(), g.m, g.n)
	out, yst, err := mm.views[ViewY].output(r)
	if err != nil {
		return nil, argErr("MatMul", "output view: %v", err)
	}
	g.out, g.ld[ViewY], g.str[ViewY] = out, yst[nb], yst[:nb]
	for i, s := range shapes {
		g.str[i] = batchStrides(s[:s.Rank()-2], strides[i], g.batch)
	}
	// An empty operand or output is never read or written, but its batch
	// strides could still step past the end of its (empty) storage.
	for i, s := range [3]tensor.Shape{a, b, out} {
		if s.Numel() == 0 {
			clear(g.str[i])
		}
	}
	return &g, nil
}

// batchStrides maps an operand's batch dims s (element strides st) onto
// the broadcast batch shape: right-aligned, 0 where the operand broadcasts.
func batchStrides(s tensor.Shape, st []int, batch tensor.Shape) []int {
	out := make([]int, len(batch))
	for d := range s {
		if s[d] != 1 {
			out[d+len(batch)-len(s)] = st[d]
		}
	}
	return out
}

// run implements ONNX MatMul — a 2-D matrix product plus batched variants
// where both inputs have rank >= 2 and leading dimensions broadcast — with
// an optional third input: a bias of N elements added along the last axis
// (the absorbed Add), ahead of any writeback activation. The products run
// on the blocked GEMM core (internal/kernels), each operand and the output
// addressed through the node's views. pp is non-nil when the graph's right
// operand is a constant Bind already packed.
func (mm *matMul) run(in []*tensor.Tensor, alc tensor.Allocator, pp *Prepacked) ([]*tensor.Tensor, error) {
	if err := need("MatMul", in, 2, 3); err != nil {
		return nil, err
	}
	g, err := mm.geometry(in[0].Shape(), in[1].Shape())
	if err != nil {
		return nil, err
	}
	m, n, k := g.m, g.n, g.k
	epi := mm.epi
	if len(in) == 3 {
		if in[2].Numel() != n {
			return nil, argErr("MatMul", "bias has %d elements, want %d", in[2].Numel(), n)
		}
		epi.Bias = in[2].Data()
	}
	out := tensor.ZerosIn(alc, g.out...)
	ad, bd, od := in[0].Data(), in[1].Data(), out.Data()
	lda, ldb, ldc := g.ld[0], g.ld[1], g.ld[2]
	// One shared, non-constant B is packed once into run scratch and
	// reused by every batch.
	var bbuf []float32
	if pp == nil && g.bShared {
		bbuf = tensor.AllocUninit(alc, kernels.PackedBSize(k, n))
		kernels.PackBInto(bbuf, bd, k, n, ldb, g.trans[1])
		defer tensor.Free(alc, bbuf)
	}
	// Walk the batch shape with each operand's batch strides (0 on a
	// dimension it broadcasts), so mixed batch shapes like [2,1]x[1,3] and
	// permuted operands address the right matrices.
	w := newWalk(g.batch, g.str[0], g.str[1], g.str[2])
	for w.seek(0, w.runs); w.left > 0; w.next() {
		for i := 0; i < w.n; i++ {
			a := ad[w.off[0]+i*w.step[0]:]
			c := od[w.off[2]+i*w.step[2]:]
			switch {
			case pp != nil:
				kernels.GemmPackedBEpi(1, m, a, lda, g.trans[0], pp.B, c, ldc, alc, epi)
			case bbuf != nil:
				kernels.GemmBPackedEpi(1, m, n, k, a, lda, g.trans[0], bbuf, c, ldc, alc, epi)
			default:
				kernels.GemmEpi(1, m, n, k, a, lda, g.trans[0], bd[w.off[1]+i*w.step[1]:], ldb, g.trans[1], c, ldc, alc, epi)
			}
		}
	}
	return []*tensor.Tensor{out}, nil
}

// Gemm implements ONNX Gemm: Y = alpha*op(A)*op(B) + beta*C with optional
// transposes; C broadcasts over rows when it is a vector. The product runs
// on the blocked GEMM core, which also adds a row-vector C as its bias
// epilogue; a full or scalar C is added in a row-parallel sweep. pp is
// non-nil when B is a constant Bind already packed.
func gemmK(in []*tensor.Tensor, attrs Attrs, alc tensor.Allocator, pp *Prepacked) ([]*tensor.Tensor, error) {
	if err := need("Gemm", in, 2, 3); err != nil {
		return nil, err
	}
	a, b := in[0], in[1]
	alpha := float32(attrs.Float("alpha", 1))
	beta := float32(attrs.Float("beta", 1))
	transA := attrs.Int("transA", 0) != 0
	transB := attrs.Int("transB", 0) != 0
	as, bs := a.Shape(), b.Shape()
	if as.Rank() != 2 || bs.Rank() != 2 {
		return nil, argErr("Gemm", "want 2-D operands, got %v and %v", as, bs)
	}
	m, k := as[0], as[1]
	if transA {
		m, k = k, m
	}
	kb, n := bs[0], bs[1]
	if transB {
		kb, n = n, kb
	}
	if k != kb {
		return nil, argErr("Gemm", "inner dimensions differ: %d vs %d", k, kb)
	}
	out := tensor.ZerosIn(alc, m, n)
	od := out.Data()

	// A fused writeback activation applies after the bias term. A row
	// vector C rides the GEMM core's writeback as its bias, scaled into
	// scratch when beta != 1; a full or scalar C is added in one sweep that
	// then applies the activation (still one pass over C).
	epi := epilogueOf(attrs)
	coreEpi := epi
	var c []float32
	var cs tensor.Shape
	if len(in) == 3 && beta != 0 {
		c, cs = in[2].Data(), in[2].Shape()
		switch {
		case cs.Equal(tensor.Shape{m, n}), cs.Numel() == 1:
			coreEpi = kernels.Epilogue{}
		case cs.Numel() == n: // bias row vector, broadcast over rows
			coreEpi.Bias = c[:n]
			if beta != 1 {
				coreEpi.Bias = tensor.AllocUninit(alc, n)
				defer tensor.Free(alc, coreEpi.Bias)
				for j, cv := range c[:n] {
					coreEpi.Bias[j] = beta * cv
				}
			}
			c = nil
		default:
			return nil, argErr("Gemm", "C shape %v not broadcastable to [%d %d]", cs, m, n)
		}
	}

	if pp != nil {
		kernels.GemmPackedBEpi(alpha, m, a.Data(), as[1], transA, pp.B, od, n, alc, coreEpi)
	} else {
		kernels.GemmEpi(alpha, m, n, k, a.Data(), as[1], transA, b.Data(), bs[1], transB, od, n, alc, coreEpi)
	}

	// The epilogue applies after C while the chunk is still cache-hot;
	// epi.Apply is a no-op switch when none is fused, so the plain `+=`
	// sweeps stay branch-free per element.
	switch {
	case c == nil:
	case cs.Numel() == 1:
		add := beta * c[0]
		tensor.ParallelRange(m, 16, func(lo, hi int) {
			for i := lo * n; i < hi*n; i++ {
				od[i] += add
			}
			epi.Apply(od[lo*n : hi*n])
		})
	default:
		tensor.ParallelRange(m, 16, func(lo, hi int) {
			for i := lo * n; i < hi*n; i++ {
				od[i] += beta * c[i]
			}
			epi.Apply(od[lo*n : hi*n])
		})
	}
	return []*tensor.Tensor{out}, nil
}
