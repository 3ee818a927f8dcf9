package ops

import (
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// MatMul implements ONNX MatMul: 2-D matrix product plus batched variants
// where both inputs have rank >= 2 and leading dimensions broadcast. The
// product itself runs on the blocked GEMM core (internal/kernels); this
// file only validates shapes and maps batch indexes. pp is non-nil when the
// graph's right operand is a constant Bind already packed.
func matMulK(in []*tensor.Tensor, attrs Attrs, alc tensor.Allocator, pp *Prepacked) ([]*tensor.Tensor, error) {
	if err := need("MatMul", in, 2, 2); err != nil {
		return nil, err
	}
	a, b := in[0], in[1]
	as, bs := a.Shape(), b.Shape()
	if as.Rank() < 2 || bs.Rank() < 2 {
		return nil, argErr("MatMul", "want rank >= 2 operands, got %v and %v", as, bs)
	}
	m, k := as[as.Rank()-2], as[as.Rank()-1]
	k2, n := bs[bs.Rank()-2], bs[bs.Rank()-1]
	if k != k2 {
		return nil, argErr("MatMul", "inner dimensions differ: %v x %v", as, bs)
	}
	batchShape, err := tensor.Broadcast(as[:as.Rank()-2], bs[:bs.Rank()-2])
	if err != nil {
		return nil, argErr("MatMul", "batch dims incompatible: %v", err)
	}
	outShape := append(batchShape.Clone(), m, n)
	out := tensor.ZerosIn(alc, outShape...)
	ad, bd, od := a.Data(), b.Data(), out.Data()
	epi := epilogueOf(attrs)
	// One shared, non-constant B is packed once into run scratch and
	// reused by every batch.
	var bbuf []float32
	if pp == nil && bs[:bs.Rank()-2].Numel() == 1 {
		bbuf = tensor.AllocUninit(alc, kernels.PackedBSize(k, n))
		kernels.PackBInto(bbuf, bd, k, n, n, false)
		defer tensor.Free(alc, bbuf)
	}

	// Walk the batch shape with each operand's broadcast batch strides (0
	// on a dimension it broadcasts), so mixed batch shapes like [2,1]x[1,3]
	// address the right matrices.
	w := newWalk(batchShape, broadcastStrides(nil, as[:as.Rank()-2], batchShape), broadcastStrides(nil, bs[:bs.Rank()-2], batchShape))
	o := od
	for w.seek(0, w.runs); w.left > 0; w.next() {
		for i := 0; i < w.n; i++ {
			aOff := (w.off[0] + i*w.step[0]) * m * k
			bOff := (w.off[1] + i*w.step[1]) * k * n
			switch {
			case pp != nil:
				kernels.GemmPackedBEpi(1, m, ad[aOff:], k, false, pp.B, o, alc, epi)
			case bbuf != nil:
				kernels.GemmBPackedEpi(1, m, n, k, ad[aOff:], k, false, bbuf, o, alc, epi)
			default:
				kernels.GemmEpi(1, m, n, k, ad[aOff:], k, false, bd[bOff:], n, false, o, alc, epi)
			}
			o = o[m*n:]
		}
	}
	return []*tensor.Tensor{out}, nil
}

// Gemm implements ONNX Gemm: Y = alpha*op(A)*op(B) + beta*C with optional
// transposes; C broadcasts over rows when it is a vector. The product runs
// on the blocked GEMM core; the beta/bias epilogue is row-parallel. pp is
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

	// A fused writeback activation applies after the bias term; with a live
	// beta/C sweep it folds into that sweep (still one pass over C),
	// otherwise it rides the GEMM core's packed writeback.
	epi := epilogueOf(attrs)
	hasBias := len(in) == 3 && beta != 0
	coreEpi := epi
	if hasBias {
		coreEpi = kernels.Epilogue{}
	}

	if pp != nil {
		kernels.GemmPackedBEpi(alpha, m, a.Data(), as[1], transA, pp.B, od, alc, coreEpi)
	} else {
		kernels.GemmEpi(alpha, m, n, k, a.Data(), as[1], transA, b.Data(), bs[1], transB, od, alc, coreEpi)
	}

	if hasBias {
		c := in[2]
		cs := c.Shape()
		cd := c.Data()
		// The epilogue applies after the bias while the chunk is still
		// cache-hot; epi.Apply is a no-op switch when none is fused, so the
		// plain `+=` sweeps stay branch-free per element.
		switch {
		case cs.Equal(tensor.Shape{m, n}):
			tensor.ParallelRange(m, 16, func(lo, hi int) {
				for i := lo * n; i < hi*n; i++ {
					od[i] += beta * cd[i]
				}
				epi.Apply(od[lo*n : hi*n])
			})
		case cs.Numel() == n: // bias row vector, broadcast over rows
			tensor.ParallelRange(m, 16, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					row := od[i*n : i*n+n]
					for j, cv := range cd[:n] {
						row[j] += beta * cv
					}
				}
				epi.Apply(od[lo*n : hi*n])
			})
		case cs.Numel() == 1:
			add := beta * cd[0]
			tensor.ParallelRange(m, 16, func(lo, hi int) {
				for i := lo * n; i < hi*n; i++ {
					od[i] += add
				}
				epi.Apply(od[lo*n : hi*n])
			})
		default:
			return nil, argErr("Gemm", "C shape %v not broadcastable to [%d %d]", cs, m, n)
		}
	}
	return []*tensor.Tensor{out}, nil
}
