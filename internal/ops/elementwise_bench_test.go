package ops

import (
	"testing"

	"repro/internal/tensor"
)

// Devirtualization micro-benchmarks: bound nodes running the specialized
// slice loops (BenchmarkReluDirect, BenchmarkAddDirect, …) against the
// function-pointer references unary and binary (…Indirect), on a
// serving-sized activation map. The Indirect forms pay the per-element
// func(float32) float32 dispatch the hot path no longer has.

const benchElems = 1 << 16 // 256 KiB tensor: memory-bound, like real glue ops

var (
	reluIndirectK = unary("Relu", func(v float32) float32 {
		if v < 0 {
			return 0
		}
		return v
	})
	addIndirectK = binary("Add", func(a, b float32) float32 { return a + b })
	mulIndirectK = binary("Mul", func(a, b float32) float32 { return a * b })
	subIndirectK = binary("Sub", func(a, b float32) float32 { return a - b })
)

// unary builds an AllocKernel applying f element-wise through a function
// pointer: the reference the devirtualized loops are benchmarked against.
func unary(op string, f func(float32) float32) AllocKernel {
	return func(in []*tensor.Tensor, _ Attrs, a tensor.Allocator) ([]*tensor.Tensor, error) {
		if err := need(op, in, 1, 1); err != nil {
			return nil, err
		}
		x := in[0]
		out := tensor.ZerosLikeIn(a, x)
		xd, od := x.Data(), out.Data()
		tensor.ParallelRange(len(xd), 4096, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				od[i] = f(xd[i])
			}
		})
		return []*tensor.Tensor{out}, nil
	}
}

// boundK binds op once, with no attributes or constants, and adapts the
// binding to an AllocKernel.
func boundK(op string) AllocKernel {
	k, _ := Bind(op, nil, nil)
	return func(in []*tensor.Tensor, _ Attrs, a tensor.Allocator) ([]*tensor.Tensor, error) {
		return k.Run(in, a, false)
	}
}

func benchUnary(b *testing.B, k AllocKernel) {
	b.Helper()
	r := tensor.NewRNG(1)
	x := r.RandTensor(benchElems)
	in := []*tensor.Tensor{x}
	b.SetBytes(4 * benchElems)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k(in, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBinary(b *testing.B, k AllocKernel) {
	b.Helper()
	r := tensor.NewRNG(2)
	x := r.RandTensor(benchElems)
	y := r.RandTensor(benchElems)
	in := []*tensor.Tensor{x, y}
	b.SetBytes(4 * benchElems)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k(in, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReluDirect(b *testing.B)   { benchUnary(b, boundK("Relu")) }
func BenchmarkReluIndirect(b *testing.B) { benchUnary(b, reluIndirectK) }
func BenchmarkAddDirect(b *testing.B)    { benchBinary(b, boundK("Add")) }
func BenchmarkAddIndirect(b *testing.B)  { benchBinary(b, addIndirectK) }
func BenchmarkMulDirect(b *testing.B)    { benchBinary(b, boundK("Mul")) }
func BenchmarkMulIndirect(b *testing.B)  { benchBinary(b, mulIndirectK) }
func BenchmarkSubDirect(b *testing.B)    { benchBinary(b, boundK("Sub")) }
func BenchmarkSubIndirect(b *testing.B)  { benchBinary(b, subIndirectK) }

// BenchmarkFusedElementwiseChain measures a four-stage activation chain
// (Add→Relu→Mul(scalar)→Clip) as one FusedElementwise invocation against
// the same chain as four registry kernel calls — the per-chain win the
// graph fusion pass banks every time it collapses a chain.
func BenchmarkFusedElementwiseChain(b *testing.B) {
	r := tensor.NewRNG(3)
	x := r.RandTensor(benchElems)
	same := r.RandTensor(benchElems)
	in := []*tensor.Tensor{x, same}
	attrs := FusedStageAttrs(nil, "Add", nil, 1, false)
	attrs = FusedStageAttrs(attrs, "Relu", nil, -1, false)
	attrs = FusedStageAttrs(attrs, "Mul", Attrs{}, 2, false)
	in = append(in, tensor.Scalar(0.5))
	attrs = FusedStageAttrs(attrs, "Clip", Attrs{"min": -1.0, "max": 1.0}, -1, false)
	fused, _ := Bind("FusedElementwise", attrs, nil)
	b.SetBytes(4 * benchElems)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fused.Run(in, nil, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnfusedElementwiseChain(b *testing.B) {
	r := tensor.NewRNG(3)
	x := r.RandTensor(benchElems)
	same := r.RandTensor(benchElems)
	half := tensor.Scalar(0.5)
	add, mul := boundK("Add"), boundK("Mul")
	relu, _ := Bind("Relu", nil, nil)
	clip, _ := Bind("Clip", Attrs{"min": -1.0, "max": 1.0}, nil)
	b.SetBytes(4 * benchElems)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := add([]*tensor.Tensor{x, same}, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if v, err = relu.Run(v, nil, false); err != nil {
			b.Fatal(err)
		}
		if v, err = mul([]*tensor.Tensor{v[0], half}, nil, nil); err != nil {
			b.Fatal(err)
		}
		if _, err = clip.Run(v, nil, false); err != nil {
			b.Fatal(err)
		}
	}
}
