package ops

import (
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// Prepacked holds the compile-time-packed constant weight of one node: the
// packed right-hand weight matrix of MatMul/Gemm or the per-group filter
// matrices of Conv. It is immutable after creation and shared by every run
// of the owning plan.
type Prepacked struct {
	// B is the packed right operand (MatMul/Gemm).
	B *kernels.PackedB
	// A holds one packed filter matrix per convolution group (Conv).
	A []*kernels.PackedA
}

// Bytes reports the packed footprint.
func (p *Prepacked) Bytes() int64 {
	var b int64
	if p.B != nil {
		b += p.B.Bytes()
	}
	for _, a := range p.A {
		b += a.Bytes()
	}
	return b
}

// packed binds a GEMM-shaped op: its constant weight operand is packed
// once, and every run hands the packing — nil when the weight is not a
// constant or the kernel would not take the GEMM path — to the kernel body,
// which packs at call time without it. Both paths compute identical values.
func packed(op string, body func(in []*tensor.Tensor, attrs Attrs, a tensor.Allocator, pp *Prepacked) ([]*tensor.Tensor, error)) binder {
	return func(attrs Attrs, consts []*tensor.Tensor) *Bound {
		return &Bound{Packed: prepack(op, attrs, consts), run: func(in []*tensor.Tensor, a tensor.Allocator, pp *Prepacked, _ bool) ([]*tensor.Tensor, error) {
			return body(in, attrs, a, pp)
		}}
	}
}

// prepack packs the constant weight operand of one MatMul or Gemm node
// (Conv packs its own filters, conv.pack); constIn mirrors the node's inputs positionally, nil for anything
// that is not a graph constant.
func prepack(opType string, attrs Attrs, constIn []*tensor.Tensor) *Prepacked {
	switch opType {
	case "MatMul":
		if len(constIn) < 2 || constIn[1] == nil || HasView(attrs, ViewB) {
			return nil
		}
		b := constIn[1]
		bs := b.Shape()
		if bs.Rank() < 2 {
			return nil
		}
		k, n := bs[bs.Rank()-2], bs[bs.Rank()-1]
		if k <= 0 || n <= 0 || k*n != b.Numel() {
			// A truly batched constant B (several distinct matrices) is not
			// worth a per-batch packed copy; leave it to the call-time path.
			return nil
		}
		return &Prepacked{B: kernels.PrepackB(b.Data(), k, n, n, false)}
	case "Gemm":
		if len(constIn) < 2 || constIn[1] == nil {
			return nil
		}
		b := constIn[1]
		bs := b.Shape()
		if bs.Rank() != 2 {
			return nil
		}
		transB := attrs.Int("transB", 0) != 0
		k, n := bs[0], bs[1]
		if transB {
			k, n = n, k
		}
		if k <= 0 || n <= 0 {
			return nil
		}
		return &Prepacked{B: kernels.PrepackB(b.Data(), k, n, bs[1], transB)}
	}
	return nil
}

// ScratchElems estimates the transient float32 elements the node's kernel
// will draw from the run's allocator for these inputs — the im2col patch
// matrix plus call-time GEMM packing — so the memory planner can size
// arenas beyond value storage alone. Prepacked weights remove the A-side
// term at run time; the estimate reports the un-prepacked worst case.
func ScratchElems(opType string, attrs Attrs, in []*tensor.Tensor) int {
	switch opType {
	case "MatMul":
		if len(in) < 2 {
			return 0
		}
		mm, err := decodeMatMul(attrs)
		if err != nil {
			return 0
		}
		g, err := mm.geometry(in[0].Shape(), in[1].Shape())
		if err != nil {
			return 0
		}
		return kernels.PackedASize(g.m, g.k) + kernels.PackedBSize(g.k, g.n)
	case "Gemm":
		if len(in) < 2 || in[0].Shape().Rank() != 2 || in[1].Shape().Rank() != 2 {
			return 0
		}
		as := in[0].Shape()
		m, k := as[0], as[1]
		if attrs.Int("transA", 0) != 0 {
			m, k = k, m
		}
		n := in[1].Numel() / max(k, 1)
		return kernels.PackedASize(m, k) + kernels.PackedBSize(k, n)
	case "Conv":
		if len(in) < 2 {
			return 0
		}
		return newConv(attrs).scratch(in[0].Shape(), in[1].Shape())
	}
	return 0
}
