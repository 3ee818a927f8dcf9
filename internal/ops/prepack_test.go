package ops

import (
	"testing"

	"repro/internal/tensor"
)

// TestPrepackedMatMulMatchesRegistry: a binding with a packed constant
// weight must be bit-identical to one that packs at call time (same packed
// layout, same compute order — prepacking only moves the packing to
// compile time).
func TestPrepackedMatMulMatchesRegistry(t *testing.T) {
	r := tensor.NewRNG(51)
	a := r.RandTensor(9, 33)
	b := r.RandTensor(33, 21)
	k, _ := Bind("MatMul", nil, []*tensor.Tensor{nil, b})
	pp := k.Packed
	if pp == nil || pp.B == nil {
		t.Fatal("MatMul constant B not prepacked")
	}
	if pp.Bytes() <= 0 {
		t.Fatal("prepacked bytes not reported")
	}
	want, err := call("MatMul", []*tensor.Tensor{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Run([]*tensor.Tensor{a, b}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Equal(want[0]) {
		t.Errorf("prepacked MatMul diverges: max diff %v", got[0].MaxAbsDiff(want[0]))
	}
}

func TestPrepackedGemmMatchesRegistry(t *testing.T) {
	r := tensor.NewRNG(52)
	a := r.RandTensor(7, 19)
	b := r.RandTensor(23, 19) // transB
	c := r.RandTensor(23)
	attrs := Attrs{"transB": 1, "alpha": 0.5, "beta": 1.5}
	k, _ := Bind("Gemm", attrs, []*tensor.Tensor{nil, b, nil})
	pp := k.Packed
	if pp == nil || pp.B == nil {
		t.Fatal("Gemm constant B not prepacked")
	}
	if pp.B.K != 19 || pp.B.N != 23 {
		t.Fatalf("transB prepack got K=%d N=%d", pp.B.K, pp.B.N)
	}
	want, err := call("Gemm", []*tensor.Tensor{a, b, c}, attrs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Run([]*tensor.Tensor{a, b, c}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Equal(want[0]) {
		t.Errorf("prepacked Gemm diverges: max diff %v", got[0].MaxAbsDiff(want[0]))
	}
}

func TestPrepackedConvMatchesRegistry(t *testing.T) {
	r := tensor.NewRNG(53)
	cases := []struct {
		n, c, h, w, m, kh, kw, sh, sw, pad, groups int
	}{
		{1, 4, 11, 9, 6, 3, 3, 1, 1, 1, 1},
		{2, 6, 8, 8, 4, 3, 3, 2, 2, 1, 2},
		{1, 8, 7, 7, 8, 1, 1, 1, 1, 0, 1},
	}
	for _, tc := range cases {
		x := r.RandTensor(tc.n, tc.c, tc.h, tc.w)
		w := r.RandTensor(tc.m, tc.c/tc.groups, tc.kh, tc.kw)
		bias := r.RandTensor(tc.m)
		attrs := Attrs{
			"strides": []int{tc.sh, tc.sw},
			"pads":    []int{tc.pad, tc.pad, tc.pad, tc.pad},
			"group":   tc.groups,
		}
		k, _ := Bind("Conv", attrs, []*tensor.Tensor{nil, w, nil})
		pp := k.Packed
		if pp == nil || len(pp.A) != tc.groups {
			t.Fatalf("%+v: conv filters not prepacked per group", tc)
		}
		in := []*tensor.Tensor{x, w, bias}
		want, err := call("Conv", in, attrs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.Run(in, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if !got[0].Equal(want[0]) {
			t.Errorf("%+v: prepacked Conv diverges: max diff %v", tc, got[0].MaxAbsDiff(want[0]))
		}
	}
}

// TestPrepackSkipsNonGEMMCases: ops without a GEMM-shaped constant operand
// (or where the kernel would run the windowed rows) must not pack.
func TestPrepackSkipsNonGEMMCases(t *testing.T) {
	r := tensor.NewRNG(54)
	if k, _ := Bind("Relu", nil, []*tensor.Tensor{r.RandTensor(4)}); k.Packed != nil {
		t.Error("Relu prepacked")
	}
	if k, _ := Bind("MatMul", nil, []*tensor.Tensor{r.RandTensor(3, 3), nil}); k.Packed != nil {
		t.Error("MatMul with non-constant B prepacked")
	}
	// Batched constant B (two distinct matrices) stays call-time.
	if k, _ := Bind("MatMul", nil, []*tensor.Tensor{nil, r.RandTensor(2, 3, 4)}); k.Packed != nil {
		t.Error("batched constant B prepacked")
	}
	// Depthwise conv runs the windowed rows; packing would be wasted.
	dw := r.RandTensor(8, 1, 3, 3)
	if k, _ := Bind("Conv", Attrs{"group": 8}, []*tensor.Tensor{nil, dw, nil}); k.Packed != nil {
		t.Error("depthwise conv prepacked")
	}
}

// TestScratchElems sanity-checks the planner's scratch sizing against the
// kernels' actual draw: a conv's estimate must cover the im2col patch
// matrix it allocates.
func TestScratchElems(t *testing.T) {
	r := tensor.NewRNG(55)
	x := r.RandTensor(1, 4, 10, 10)
	w := r.RandTensor(8, 4, 3, 3)
	attrs := Attrs{"pads": []int{1, 1, 1, 1}}
	s := ScratchElems("Conv", attrs, []*tensor.Tensor{x, w})
	colK, colN := 4*3*3, 10*10
	if s < colK*colN {
		t.Errorf("conv scratch estimate %d < im2col size %d", s, colK*colN)
	}
	// The estimate must cover what an arena-backed run actually draws.
	ar := tensor.NewArena()
	conv, _ := Bind("Conv", attrs, nil)
	if _, err := conv.Run([]*tensor.Tensor{x, w}, ar, false); err != nil {
		t.Fatal(err)
	}
	if held := ar.Stats().Snapshot().HeldBytes; held > 4*2*int64(s) {
		// Held buffers are class-rounded, so allow 2x headroom.
		t.Errorf("conv drew %d held bytes, estimate %d elems (%d bytes)", held, s, 4*s)
	}
	if s := ScratchElems("Relu", nil, []*tensor.Tensor{x}); s != 0 {
		t.Errorf("Relu scratch = %d, want 0", s)
	}
	if s := ScratchElems("MatMul", nil, []*tensor.Tensor{r.RandTensor(5, 6), r.RandTensor(6, 7)}); s <= 0 {
		t.Error("MatMul scratch estimate is zero")
	}
}
