package ops

import (
	"math"
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
// extra operands of binary stages in fe_args order. Extras that are
// scalars or match the flowing shape run inside the single fused sweep;
// a genuinely broadcasting extra falls back to a stage-at-a-time
// materialization through the ordinary binary kernels, so the pass never
// has to prove shapes it cannot see.
//
// bindFused decodes the stage program once per node, and the chain runs in
// place when the executor hands it in[0]'s buffer.
func bindFused(attrs Attrs, _ []*tensor.Tensor) *Bound {
	stages, decodeErr := parseFused(attrs)
	return &Bound{inPlace: true, run: func(in []*tensor.Tensor, a tensor.Allocator, _ *Prepacked, inPlace bool) ([]*tensor.Tensor, error) {
		if err := need("FusedElementwise", in, 1, -1); err != nil {
			return nil, err
		}
		if decodeErr != nil {
			return nil, decodeErr
		}
		out, err := runFused(in, stages, a, inPlace)
		if err != nil {
			return nil, err
		}
		return []*tensor.Tensor{out}, nil
	}}
}

// Attribute keys of the FusedElementwise encoding.
const (
	AttrFusedOps  = "fe_ops"
	AttrFusedArgs = "fe_args"
	AttrFusedSwap = "fe_swap"
	AttrFusedP0   = "fe_p0"
	AttrFusedP1   = "fe_p1"
)

// feStage is one decoded chain stage.
type feStage struct {
	op     string
	arg    int // extra-operand input index; -1 = unary
	swap   bool
	p0, p1 float32
	// bin is a binary stage's broadcasting kernel, which the
	// stage-at-a-time fallback runs; nil for a unary stage.
	bin AllocKernel
}

// FusedStageOK reports whether opType can be a FusedElementwise stage.
func FusedStageOK(opType string) bool {
	switch opType {
	case "Relu", "LeakyRelu", "Sigmoid", "Tanh", "Clip", "Add", "Mul", "Sub", "Div":
		return true
	}
	return false
}

// fusedBinary returns the kernel of a stage op that consumes an extra
// operand, nil for a unary stage op.
func fusedBinary(opType string) AllocKernel {
	switch opType {
	case "Add":
		return addK
	case "Mul":
		return mulK
	case "Sub":
		return subK
	case "Div":
		return divK
	}
	return nil
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
	var p0, p1 float32
	switch opType {
	case "LeakyRelu":
		p0 = float32(attrs.Float("alpha", 0.01))
	case "Clip":
		p0 = float32(attrs.Float("min", -math.MaxFloat32))
		p1 = float32(attrs.Float("max", math.MaxFloat32))
	}
	acc[AttrFusedP0] = append(acc.Floats(AttrFusedP0, nil), p0)
	acc[AttrFusedP1] = append(acc.Floats(AttrFusedP1, nil), p1)
	return acc
}

// parseFused decodes the stage attrs of a FusedElementwise node. Whether
// each extra operand exists is checked per run, against the inputs given.
func parseFused(attrs Attrs) ([]feStage, error) {
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
	stages := make([]feStage, len(names))
	for i, op := range names {
		if !FusedStageOK(op) {
			return nil, argErr("FusedElementwise", "unsupported stage op %q", op)
		}
		arg, bin := args[i], fusedBinary(op)
		if bin == nil {
			arg = -1
		} else if arg < 1 {
			return nil, argErr("FusedElementwise", "stage %d (%s) references input %d", i, op, arg)
		}
		stages[i] = feStage{op: op, arg: arg, swap: swaps[i] != 0, p0: p0[i], p1: p1[i], bin: bin}
	}
	return stages, nil
}

// runFused executes the chain. When inPlace is set the caller (the
// executor's liveness-proved transfer, Bound.Run) has given the kernel
// ownership of in[0]'s storage: the returned tensor either shares it or the
// kernel has already returned it to a.
func runFused(in []*tensor.Tensor, stages []feStage, a tensor.Allocator, inPlace bool) (*tensor.Tensor, error) {
	x := in[0]
	for i, st := range stages {
		if st.arg >= len(in) {
			return nil, argErr("FusedElementwise", "stage %d (%s) references input %d of %d", i, st.op, st.arg, len(in))
		}
	}
	// Fast path: every extra operand is a scalar or matches the flowing
	// shape exactly, so the whole chain is one tile-wise sweep — each tile
	// stays cache-hot while every stage passes over it.
	fast := true
	for _, st := range stages {
		if st.arg < 0 {
			continue
		}
		t := in[st.arg]
		// A scalar of rank <= the flowing rank broadcasts to exactly the
		// flowing shape; a higher-rank scalar would grow the result's rank
		// and must take the general path for correct shape metadata.
		if (t.Numel() == 1 && t.Rank() <= x.Rank()) || t.Shape().Equal(x.Shape()) {
			continue
		}
		fast = false
		break
	}
	if fast {
		var out *tensor.Tensor
		if inPlace {
			out = tensor.New(x.Shape(), x.Data())
		} else {
			out = uninitLike(a, x)
		}
		od, xd := out.Data(), x.Data()
		tensor.ParallelRange(len(xd), 4096, func(lo, hi int) {
			applyStage(stages[0], od[lo:hi], xd[lo:hi], in, lo)
			for _, st := range stages[1:] {
				applyStage(st, od[lo:hi], od[lo:hi], in, lo)
			}
		})
		return out, nil
	}
	return runFusedSlow(in, stages, a, inPlace)
}

// runFusedSlow is the stage-at-a-time fallback for chains containing a
// genuinely broadcasting binary stage: correct for every shape the original
// unfused graph accepted, at the cost of per-stage materialization.
func runFusedSlow(in []*tensor.Tensor, stages []feStage, a tensor.Allocator, owned bool) (*tensor.Tensor, error) {
	cur := in[0]
	for _, st := range stages {
		simple := st.arg < 0
		if !simple {
			t := in[st.arg]
			simple = (t.Numel() == 1 && t.Rank() <= cur.Rank()) || t.Shape().Equal(cur.Shape())
		}
		if simple {
			if !owned {
				nt := uninitLike(a, cur)
				applyStage(st, nt.Data(), cur.Data(), in, 0)
				cur, owned = nt, true
			} else {
				applyStage(st, cur.Data(), cur.Data(), in, 0)
			}
			continue
		}
		// Broadcasting stage: run the ordinary binary kernel; the result
		// may change shape, so the flowing buffer is replaced.
		l, r := cur, in[st.arg]
		if st.swap {
			l, r = r, cur
		}
		outs, err := st.bin([]*tensor.Tensor{l, r}, nil, a)
		if err != nil {
			if owned {
				tensor.ReleaseData(a, cur)
			}
			return nil, err
		}
		if owned {
			tensor.ReleaseData(a, cur)
		}
		cur, owned = outs[0], true
	}
	if !owned { // zero-stage chains cannot be built, but keep the no-alias contract
		cur = cur.CloneIn(a)
	}
	return cur, nil
}

// applyStage runs one stage over the index-aligned tile dst = stage(src).
// lo is the tile's offset into the flowing tensor, used to slice
// shape-matching extras; scalar extras are hoisted. dst and src may alias.
func applyStage(st feStage, dst, src []float32, in []*tensor.Tensor, lo int) {
	switch st.op {
	case "Relu":
		reluLoop(dst, src)
	case "LeakyRelu":
		leakyReluLoop(dst, src, st.p0)
	case "Sigmoid":
		sigmoidLoop(dst, src)
	case "Tanh":
		tanhLoop(dst, src)
	case "Clip":
		clipLoop(dst, src, st.p0, st.p1)
	case "Add":
		if e := in[st.arg]; e.Numel() == 1 {
			addScalarLoop(dst, src, e.Data()[0])
		} else {
			addLoop(dst, src, e.Data()[lo:lo+len(src)])
		}
	case "Mul":
		if e := in[st.arg]; e.Numel() == 1 {
			mulScalarLoop(dst, src, e.Data()[0])
		} else {
			mulLoop(dst, src, e.Data()[lo:lo+len(src)])
		}
	case "Sub":
		e := in[st.arg]
		switch {
		case st.swap && e.Numel() == 1:
			rsubScalarLoop(dst, e.Data()[0], src)
		case st.swap:
			subLoop(dst, e.Data()[lo:lo+len(src)], src)
		case e.Numel() == 1:
			subScalarLoop(dst, src, e.Data()[0])
		default:
			subLoop(dst, src, e.Data()[lo:lo+len(src)])
		}
	case "Div":
		e := in[st.arg]
		switch {
		case st.swap && e.Numel() == 1:
			rdivScalarLoop(dst, e.Data()[0], src)
		case st.swap:
			divLoop(dst, e.Data()[lo:lo+len(src)], src)
		case e.Numel() == 1:
			divScalarLoop(dst, src, e.Data()[0])
		default:
			divLoop(dst, src, e.Data()[lo:lo+len(src)])
		}
	}
}
