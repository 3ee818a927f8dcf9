package ops

import (
	"strings"

	"repro/internal/tensor"
)

// FusedElementwise executes a compile-time-collapsed chain of elementwise
// ops (internal/passes.FuseElementwise) as one kernel invocation: the
// chain's value flows through a single output buffer, each stage a
// specialized slice loop — no per-element function pointers, no
// per-stage intermediate tensors.
//
// Node encoding (all attribute kinds survive JSON and codegen round trips):
//
//	fe_ops  string    stage op names joined by "|" ("Relu|Add|Clip")
//	fe_args []int     per stage: node-input index of the extra operand of a
//	                  binary stage, or -1 for a unary stage
//	fe_swap []int     per stage: 1 when the flowing value is the RIGHT
//	                  operand of the binary op (v = extra OP flowing)
//	fe_p0   []float32 per stage: LeakyRelu alpha, Clip min
//	fe_p1   []float32 per stage: Clip max
//
// Input 0 is the chain head's flowing input; the remaining inputs are the
// extra operands of binary stages in fe_args order. run executes the chain
// like any elementwise node: extras that are scalars or match the flowing
// shape run inside one tile-wise sweep, and a genuinely broadcasting extra
// goes through broadcastBinary, so the pass never has to prove shapes it
// cannot see.
//
// bindFused decodes the stage program once per node, and the chain runs in
// place when the executor hands it in[0]'s buffer.
func bindFused(attrs Attrs, _ []*tensor.Tensor) *Bound {
	stages, err := parseFused(attrs)
	return program("FusedElementwise", 1, -1, stages, true, err)
}

// Attribute keys of the FusedElementwise encoding.
const (
	AttrFusedOps  = "fe_ops"
	AttrFusedArgs = "fe_args"
	AttrFusedSwap = "fe_swap"
	AttrFusedP0   = "fe_p0"
	AttrFusedP1   = "fe_p1"
)

// stage is one step of an elementwise program: a table entry with its
// operands and parameters.
type stage struct {
	elementwiseOp
	op     string
	arg    int  // extra-operand input index; -1 = unary
	swap   bool // the flowing value is the binary op's right operand
	p0, p1 float32
}

// FusedStageInputs is the number of inputs a node of opType has as a
// FusedElementwise stage, 1 for a unary op and 2 for a binary one, or 0
// when the elementwise table does not mark opType chainable.
func FusedStageInputs(opType string) int {
	switch e := elementwise[opType]; {
	case !e.chain:
		return 0
	case e.binary != nil:
		return 2
	}
	return 1
}

// FusedStageAttrs encodes one activation/arithmetic node as stage attrs
// slices, appending to the accumulator attrs of a FusedElementwise node
// under construction. arg is the extra operand's input index (-1 unary)
// and swap marks the flowing value as right operand.
func FusedStageAttrs(acc Attrs, opType string, attrs Attrs, arg int, swap bool) Attrs {
	if acc == nil {
		acc = Attrs{}
	}
	ops := acc.Str(AttrFusedOps, "")
	if ops == "" {
		ops = opType
	} else {
		ops += "|" + opType
	}
	acc[AttrFusedOps] = ops
	acc[AttrFusedArgs] = append(acc.Ints(AttrFusedArgs, nil), arg)
	sw := 0
	if swap {
		sw = 1
	}
	acc[AttrFusedSwap] = append(acc.Ints(AttrFusedSwap, nil), sw)
	p0, p1 := params(opType, attrs, nodeKeys)
	acc[AttrFusedP0] = append(acc.Floats(AttrFusedP0, nil), float32(p0))
	acc[AttrFusedP1] = append(acc.Floats(AttrFusedP1, nil), float32(p1))
	return acc
}

// parseFused decodes the stage attrs of a FusedElementwise node. Whether
// each extra operand exists is checked per run, against the inputs given.
func parseFused(attrs Attrs) ([]stage, error) {
	opsStr := attrs.Str(AttrFusedOps, "")
	if opsStr == "" {
		return nil, argErr("FusedElementwise", "missing %s attribute", AttrFusedOps)
	}
	names := strings.Split(opsStr, "|")
	args := attrs.Ints(AttrFusedArgs, nil)
	swaps := attrs.Ints(AttrFusedSwap, nil)
	p0 := attrs.Floats(AttrFusedP0, nil)
	p1 := attrs.Floats(AttrFusedP1, nil)
	if len(args) != len(names) || len(swaps) != len(names) || len(p0) != len(names) || len(p1) != len(names) {
		return nil, argErr("FusedElementwise", "stage attribute lengths disagree for %q", opsStr)
	}
	stages := make([]stage, len(names))
	for i, op := range names {
		e := elementwise[op]
		if !e.chain {
			return nil, argErr("FusedElementwise", "unsupported stage op %q", op)
		}
		arg := args[i]
		if e.binary == nil {
			arg = -1
		} else if arg < 1 {
			return nil, argErr("FusedElementwise", "stage %d (%s) references input %d", i, op, arg)
		}
		stages[i] = stage{elementwiseOp: e, op: op, arg: arg, swap: swaps[i] != 0, p0: p0[i], p1: p1[i]}
	}
	return stages, nil
}

// program binds the stage program of a node of op, which takes between lo
// and hi inputs (hi < 0: unbounded). A non-nil bindErr fails every run.
func program(op string, lo, hi int, stages []stage, inPlace bool, bindErr error) *Bound {
	return &Bound{inPlace: inPlace, run: func(in []*tensor.Tensor, a tensor.Allocator, _ *Prepacked, owned bool) ([]*tensor.Tensor, error) {
		if err := need(op, in, lo, hi); err != nil {
			return nil, err
		}
		if bindErr != nil {
			return nil, bindErr
		}
		for i, st := range stages {
			if st.arg >= len(in) {
				return nil, argErr(op, "stage %d (%s) references input %d of %d", i, st.op, st.arg, len(in))
			}
		}
		out, err := run(in, stages, a, owned)
		if err != nil {
			return nil, err
		}
		return []*tensor.Tensor{out}, nil
	}}
}

// run executes an elementwise stage program on the flowing value in[0]; a
// binary stage's extra operand is in[st.arg]. Consecutive stages whose
// extra is a scalar or has the flowing shape run as one tile-wise sweep —
// each tile stays cache-hot while every stage passes over it — and any
// other stage goes to broadcastBinary, which may change the flowing shape.
// With owned set the caller (Bound.Run's in-place form) has given run
// in[0]'s storage: the result shares it, or run has returned it to a.
func run(in []*tensor.Tensor, stages []stage, a tensor.Allocator, owned bool) (*tensor.Tensor, error) {
	cur := in[0]
	for i := 0; i < len(stages); {
		j := i
		for j < len(stages) && stages[j].sweeps(in, cur.Shape()) {
			j++
		}
		if j > i {
			dst := cur
			if !owned {
				dst, owned = uninitLike(a, cur), true
			}
			sweep(dst.Data(), cur.Data(), stages[i:j], in)
			cur, i = dst, j
			continue
		}
		st := &stages[i]
		l, r := cur, in[st.arg]
		if st.swap {
			l, r = r, l
		}
		out, err := broadcastBinary(st.op, st.binary, l, r, a)
		if owned {
			tensor.ReleaseData(a, cur)
		}
		if err != nil {
			return nil, err
		}
		cur, owned = out, true
		i++
	}
	switch {
	case !owned: // zero-stage chains cannot be built, but keep the no-alias contract
		return cur.CloneIn(a), nil
	case cur == in[0]: // in place: a fresh header over in[0]'s buffer
		return tensor.New(cur.Shape(), cur.Data()), nil
	}
	return cur, nil
}

// sweeps reports whether the stage runs inside a tile-wise sweep over a
// flowing value of shape s: it is unary, or its extra operand has shape s,
// or is a scalar of rank at most s's. A higher-rank scalar would grow the
// result's rank, so it takes broadcastBinary for the shape metadata.
func (st *stage) sweeps(in []*tensor.Tensor, s tensor.Shape) bool {
	if st.binary == nil {
		return true
	}
	e := in[st.arg]
	return (e.Numel() == 1 && e.Rank() <= s.Rank()) || e.Shape().Equal(s)
}

// sweep runs the stages over dst = stages(src) tile by tile across the
// intra-op workers; dst and src may alias.
func sweep(dst, src []float32, stages []stage, in []*tensor.Tensor) {
	tensor.ParallelRange(len(src), 4096, func(lo, hi int) {
		stages[0].apply(dst[lo:hi], src[lo:hi], in, lo)
		for k := 1; k < len(stages); k++ {
			stages[k].apply(dst[lo:hi], dst[lo:hi], in, lo)
		}
	})
}

// apply runs the stage over the index-aligned tile dst = stage(src). lo is
// the tile's offset into the flowing value, used to slice a shape-matching
// extra; a scalar extra is hoisted. dst and src may alias.
func (st *stage) apply(dst, src []float32, in []*tensor.Tensor, lo int) {
	if st.binary == nil {
		st.unary(dst, src, st.p0, st.p1)
		return
	}
	e := in[st.arg].Data()
	switch {
	case len(e) == 1 && st.swap:
		st.binary.sv(dst, e[0], src)
	case len(e) == 1:
		st.binary.vs(dst, src, e[0])
	case st.swap:
		st.binary.vec(dst, e[lo:lo+len(src)], src)
	default:
		st.binary.vec(dst, src, e[lo:lo+len(src)])
	}
}
