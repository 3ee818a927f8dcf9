package ops

import (
	"testing"

	"repro/internal/tensor"
)

// binary builds an AllocKernel applying f element-wise with NumPy
// broadcasting through a function pointer: the reference the specialized
// sweeps are checked and benchmarked against. Every pair of non-identical
// shapes goes through the division-based refBroadcast.
func binary(op string, f func(a, b float32) float32) AllocKernel {
	return func(in []*tensor.Tensor, _ Attrs, alc tensor.Allocator) ([]*tensor.Tensor, error) {
		if err := need(op, in, 2, 2); err != nil {
			return nil, err
		}
		a, b := in[0], in[1]
		as, bs := a.Shape(), b.Shape()
		if as.Equal(bs) {
			out := tensor.ZerosLikeIn(alc, a)
			ad, bd, od := a.Data(), b.Data(), out.Data()
			tensor.ParallelRange(len(od), 4096, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					od[i] = f(ad[i], bd[i])
				}
			})
			return []*tensor.Tensor{out}, nil
		}
		out, err := refBroadcast(f, a, b)
		if err != nil {
			return nil, argErr(op, "%v", err)
		}
		return []*tensor.Tensor{out}, nil
	}
}

// TestBinaryFastPathsMatchStridedReference cross-checks every specialized
// sweep a bound binary node can take against the function-pointer
// reference binary — the regression net for the scalar-broadcast and
// mixed-rank fast paths.
func TestBinaryFastPathsMatchStridedReference(t *testing.T) {
	r := tensor.NewRNG(19)
	shapes := []struct {
		name string
		a, b tensor.Shape
	}{
		{"same", tensor.Shape{2, 3, 4}, tensor.Shape{2, 3, 4}},
		{"scalar-rank0", tensor.Shape{2, 3, 4}, tensor.Shape{}},
		{"scalar-rank1", tensor.Shape{2, 3, 4}, tensor.Shape{1}},
		{"scalar-left", tensor.Shape{1}, tensor.Shape{5, 7}},
		{"scalar-both", tensor.Shape{1}, tensor.Shape{}},
		{"mixed-rank-noexpand", tensor.Shape{1, 2, 3}, tensor.Shape{2, 3}},
		{"mixed-rank-noexpand-left", tensor.Shape{2, 3}, tensor.Shape{1, 1, 2, 3}},
		{"channel-bias", tensor.Shape{2, 3, 4, 4}, tensor.Shape{1, 3, 1, 1}},
		{"row-bias", tensor.Shape{5, 6}, tensor.Shape{6}},
		{"outer-product", tensor.Shape{4, 1}, tensor.Shape{1, 5}},
		{"scalar-highrank", tensor.Shape{2, 3}, tensor.Shape{1, 1, 1}},
	}
	specialized := map[string]AllocKernel{"Add": boundK("Add"), "Sub": boundK("Sub"), "Mul": boundK("Mul"), "Div": boundK("Div")}
	reference := map[string]AllocKernel{
		"Add": binary("Add", func(a, b float32) float32 { return a + b }),
		"Sub": binary("Sub", func(a, b float32) float32 { return a - b }),
		"Mul": binary("Mul", func(a, b float32) float32 { return a * b }),
		"Div": binary("Div", func(a, b float32) float32 { return a / b }),
	}
	for _, sh := range shapes {
		a := r.RandTensor(sh.a...)
		b := r.RandTensor(sh.b...)
		for op, fast := range specialized {
			want, err := reference[op]([]*tensor.Tensor{a, b}, nil, nil)
			if err != nil {
				t.Fatalf("%s %s reference: %v", sh.name, op, err)
			}
			got, err := fast([]*tensor.Tensor{a, b}, nil, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", sh.name, op, err)
			}
			if !got[0].Shape().Equal(want[0].Shape()) {
				t.Errorf("%s %s: shape %v, want %v", sh.name, op, got[0].Shape(), want[0].Shape())
				continue
			}
			if !got[0].AllClose(want[0], 1e-6, 1e-7) {
				t.Errorf("%s %s: fast path diverges from strided reference (max diff %v)",
					sh.name, op, got[0].MaxAbsDiff(want[0]))
			}
		}
	}
}

// TestBinaryFastPathShapeMetadata pins the broadcast result shapes of the
// fast paths — numel-equality alone must not flatten rank.
func TestBinaryFastPathShapeMetadata(t *testing.T) {
	a := tensor.Zeros(2, 3)
	b := tensor.Zeros(1, 2, 3)
	out, err := call("Add", []*tensor.Tensor{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Shape().Equal(tensor.Shape{1, 2, 3}) {
		t.Errorf("mixed-rank Add shape = %v, want [1 2 3]", out[0].Shape())
	}
	s := tensor.New(tensor.Shape{1, 1, 1}, []float32{2})
	out2, err := call("Mul", []*tensor.Tensor{a, s}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out2[0].Shape().Equal(tensor.Shape{1, 2, 3}) {
		t.Errorf("high-rank scalar Mul shape = %v, want [1 2 3]", out2[0].Shape())
	}
}

// TestSubDivScalarOrientation guards the non-commutative scalar sweeps.
func TestSubDivScalarOrientation(t *testing.T) {
	v := tensor.FromSlice([]float32{4, 8})
	s := tensor.Scalar(2)
	sub, _ := call("Sub", []*tensor.Tensor{v, s}, nil)
	if sub[0].Data()[0] != 2 || sub[0].Data()[1] != 6 {
		t.Errorf("v-s = %v", sub[0].Data())
	}
	rsub, _ := call("Sub", []*tensor.Tensor{s, v}, nil)
	if rsub[0].Data()[0] != -2 || rsub[0].Data()[1] != -6 {
		t.Errorf("s-v = %v", rsub[0].Data())
	}
	div, _ := call("Div", []*tensor.Tensor{v, s}, nil)
	if div[0].Data()[0] != 2 || div[0].Data()[1] != 4 {
		t.Errorf("v/s = %v", div[0].Data())
	}
	rdiv, _ := call("Div", []*tensor.Tensor{s, v}, nil)
	if rdiv[0].Data()[0] != 0.5 || rdiv[0].Data()[1] != 0.25 {
		t.Errorf("s/v = %v", rdiv[0].Data())
	}
}
