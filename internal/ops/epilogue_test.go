package ops

import (
	"testing"

	"repro/internal/tensor"
)

// mergeAttrs overlays the epilogue entries onto a node's attrs, as the
// fusion pass does.
func mergeAttrs(base, epi Attrs) Attrs {
	out := base.Clone()
	if out == nil {
		out = Attrs{}
	}
	for k, v := range epi {
		out[k] = v
	}
	return out
}

// TestConvEpilogueMatchesSeparateActivation checks Conv+epi == Conv→act on
// both the im2col+GEMM lowering and the direct (depthwise) loop.
func TestConvEpilogueMatchesSeparateActivation(t *testing.T) {
	r := tensor.NewRNG(41)
	cases := []struct {
		name  string
		x, w  *tensor.Tensor
		attrs Attrs
	}{
		{"gemm", r.RandTensor(2, 4, 9, 9), r.RandTensor(8, 4, 3, 3),
			Attrs{"pads": []int{1, 1, 1, 1}}},
		{"depthwise", r.RandTensor(1, 6, 8, 8), r.RandTensor(6, 1, 3, 3),
			Attrs{"pads": []int{1, 1, 1, 1}, "group": 6}},
	}
	acts := []struct {
		op    string
		attrs Attrs
	}{
		{"Relu", nil},
		{"LeakyRelu", Attrs{"alpha": 0.15}},
		{"Clip", Attrs{"min": -0.2, "max": 0.2}},
	}
	for _, c := range cases {
		bias := r.RandTensor(c.w.Shape()[0])
		for _, act := range acts {
			plain, err := call("Conv", []*tensor.Tensor{c.x, c.w, bias}, c.attrs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := call(act.op, plain, act.attrs)
			if err != nil {
				t.Fatal(err)
			}
			fusedAttrs := mergeAttrs(c.attrs, EpilogueAttrs(act.op, act.attrs))
			got, err := call("Conv", []*tensor.Tensor{c.x, c.w, bias}, fusedAttrs)
			if err != nil {
				t.Fatal(err)
			}
			if !got[0].AllClose(want[0], 1e-5, 1e-6) {
				t.Errorf("%s conv + %s epilogue diverges: max diff %v",
					c.name, act.op, got[0].MaxAbsDiff(want[0]))
			}
		}
	}
}

// TestGemmEpilogueAfterBias pins the ordering contract: the epilogue
// applies after the beta*C term, exactly once.
func TestGemmEpilogueAfterBias(t *testing.T) {
	r := tensor.NewRNG(6)
	a := r.RandTensor(5, 7)
	b := r.RandTensor(7, 9)
	bias := r.RandTensor(9)
	base := Attrs{"beta": 1.0}

	plain, err := call("Gemm", []*tensor.Tensor{a, b, bias}, base)
	if err != nil {
		t.Fatal(err)
	}
	clipAttrs := Attrs{"min": -0.3, "max": 0.3}
	want, err := call("Clip", plain, clipAttrs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := call("Gemm", []*tensor.Tensor{a, b, bias}, mergeAttrs(base, EpilogueAttrs("Clip", clipAttrs)))
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].AllClose(want[0], 1e-5, 1e-6) {
		t.Fatal("Gemm epilogue did not apply after the bias term")
	}

	// Without a bias term the epilogue rides the GEMM core writeback.
	plain2, err := call("Gemm", []*tensor.Tensor{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := call("Clip", plain2, clipAttrs)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := call("Gemm", []*tensor.Tensor{a, b}, mergeAttrs(nil, EpilogueAttrs("Clip", clipAttrs)))
	if err != nil {
		t.Fatal(err)
	}
	if !got2[0].AllClose(want2[0], 1e-5, 1e-6) {
		t.Fatal("bias-less Gemm epilogue diverges")
	}
}

// TestMatMulEpilogueBatched checks the epilogue applies per batch slice in
// the batched MatMul paths.
func TestMatMulEpilogueBatched(t *testing.T) {
	r := tensor.NewRNG(77)
	a := r.RandTensor(3, 4, 5)
	b := r.RandTensor(3, 5, 6)
	plain, err := call("MatMul", []*tensor.Tensor{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := call("Relu", plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := call("MatMul", []*tensor.Tensor{a, b}, mergeAttrs(nil, EpilogueAttrs("Relu", nil)))
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].AllClose(want[0], 1e-5, 1e-6) {
		t.Fatal("batched MatMul epilogue diverges")
	}
}

// TestEpilogueDegenerateK: a zero-depth product contributes nothing, but a
// fused activation must still apply to the zero-filled output exactly as
// the unfused graph would (Clip(min=1) maps 0 → 1).
func TestEpilogueDegenerateK(t *testing.T) {
	a := tensor.Zeros(2, 0)
	b := tensor.Zeros(0, 3)
	clipAttrs := Attrs{"min": 1.0, "max": 2.0}
	plain, err := call("MatMul", []*tensor.Tensor{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := call("Clip", plain, clipAttrs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := call("MatMul", []*tensor.Tensor{a, b}, mergeAttrs(nil, EpilogueAttrs("Clip", clipAttrs)))
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Equal(want[0]) {
		t.Fatalf("degenerate-K epilogue dropped: got %v, want %v", got[0], want[0])
	}
}

// TestEpilogueAttrsUnknownOp: non-writeback activations must not encode.
func TestEpilogueAttrsUnknownOp(t *testing.T) {
	if EpilogueAttrs("Sigmoid", nil) != nil {
		t.Error("Sigmoid must not ride a GEMM writeback (not accumulator-only cheap)")
	}
	if EpilogueAttrs("Softmax", nil) != nil {
		t.Error("Softmax must not ride a GEMM writeback")
	}
}
