package ops

import (
	"testing"
	"testing/quick"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

func refMatMul(a, b *tensor.Tensor) *tensor.Tensor {
	m, k := a.Shape()[0], a.Shape()[1]
	n := b.Shape()[1]
	out := tensor.Zeros(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for p := 0; p < k; p++ {
				acc += a.At(i, p) * b.At(p, j)
			}
			out.Set(acc, i, j)
		}
	}
	return out
}

func TestMatMul2D(t *testing.T) {
	r := tensor.NewRNG(3)
	for _, dims := range [][3]int{{2, 3, 4}, {1, 1, 1}, {5, 7, 2}, {16, 16, 16}} {
		a := r.RandTensor(dims[0], dims[1])
		b := r.RandTensor(dims[1], dims[2])
		got, err := call("MatMul", []*tensor.Tensor{a, b}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := refMatMul(a, b)
		if !got[0].AllClose(want, 1e-4, 1e-5) {
			t.Errorf("dims %v: mismatch %v", dims, got[0].MaxAbsDiff(want))
		}
	}
}

func TestMatMulBatched(t *testing.T) {
	r := tensor.NewRNG(9)
	a := r.RandTensor(3, 2, 4, 5)
	b := r.RandTensor(3, 2, 5, 6)
	got, err := call("MatMul", []*tensor.Tensor{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Shape().Equal(tensor.Shape{3, 2, 4, 6}) {
		t.Fatalf("shape = %v", got[0].Shape())
	}
	// Check one batch element against 2-D reference.
	a0 := tensor.New(tensor.Shape{4, 5}, a.Data()[0:20])
	b0 := tensor.New(tensor.Shape{5, 6}, b.Data()[0:30])
	want := refMatMul(a0, b0)
	g0 := tensor.New(tensor.Shape{4, 6}, got[0].Data()[0:24])
	if !g0.AllClose(want, 1e-4, 1e-5) {
		t.Error("batched MatMul batch 0 mismatch")
	}
}

func TestMatMulBroadcastBatch(t *testing.T) {
	r := tensor.NewRNG(21)
	a := r.RandTensor(4, 3, 5) // batch 4
	b := r.RandTensor(5, 6)    // no batch: broadcast
	got, err := call("MatMul", []*tensor.Tensor{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Shape().Equal(tensor.Shape{4, 3, 6}) {
		t.Fatalf("shape = %v", got[0].Shape())
	}
	// Last batch must use the same b.
	a3 := tensor.New(tensor.Shape{3, 5}, a.Data()[3*15:4*15])
	want := refMatMul(a3, b)
	g3 := tensor.New(tensor.Shape{3, 6}, got[0].Data()[3*18:4*18])
	if !g3.AllClose(want, 1e-4, 1e-5) {
		t.Error("broadcast batch mismatch")
	}
}

// Regression: mixed batch shapes like [2,1]x[1,3] must map each output
// batch (i,j) to operand panels (i) and (j) with per-dimension broadcast
// strides. The old linear batch%aBatch fallback mis-addressed these.
func TestMatMulMixedBroadcastBatch(t *testing.T) {
	r := tensor.NewRNG(33)
	const m, k, n = 4, 5, 6
	a := r.RandTensor(2, 1, m, k)
	b := r.RandTensor(1, 3, k, n)
	got, err := call("MatMul", []*tensor.Tensor{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Shape().Equal(tensor.Shape{2, 3, m, n}) {
		t.Fatalf("shape = %v", got[0].Shape())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			ai := tensor.New(tensor.Shape{m, k}, a.Data()[i*m*k:(i+1)*m*k])
			bj := tensor.New(tensor.Shape{k, n}, b.Data()[j*k*n:(j+1)*k*n])
			want := refMatMul(ai, bj)
			off := (i*3 + j) * m * n
			gij := tensor.New(tensor.Shape{m, n}, got[0].Data()[off:off+m*n])
			if !gij.AllClose(want, 1e-4, 1e-5) {
				t.Errorf("batch (%d,%d): max diff %v", i, j, gij.MaxAbsDiff(want))
			}
		}
	}
}

// TestMatMulOddShapesVsReference drives the packed kernel through tile and
// panel tails at the operator level.
func TestMatMulOddShapesVsReference(t *testing.T) {
	r := tensor.NewRNG(12)
	for _, d := range [][3]int{{1, 7, 1}, {3, 5, 33}, {17, 19, 23}, {31, 300, 9}, {65, 5, 130}} {
		a := r.RandTensor(d[0], d[1])
		b := r.RandTensor(d[1], d[2])
		got, err := call("MatMul", []*tensor.Tensor{a, b}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := refMatMul(a, b)
		if !got[0].AllClose(want, 1e-4, 1e-5) {
			t.Errorf("dims %v: max diff %v", d, got[0].MaxAbsDiff(want))
		}
	}
}

func TestMatMulErrors(t *testing.T) {
	if _, err := call("MatMul", []*tensor.Tensor{tensor.Zeros(2, 3), tensor.Zeros(4, 5)}, nil); err == nil {
		t.Error("inner-dim mismatch accepted")
	}
	if _, err := call("MatMul", []*tensor.Tensor{tensor.Zeros(3), tensor.Zeros(3, 2)}, nil); err == nil {
		t.Error("rank-1 operand accepted")
	}
	if _, err := call("MatMul", []*tensor.Tensor{tensor.Zeros(2, 2)}, nil); err == nil {
		t.Error("single operand accepted")
	}
}

func TestGemm(t *testing.T) {
	r := tensor.NewRNG(4)
	a := r.RandTensor(3, 4)
	b := r.RandTensor(4, 5)
	c := r.RandTensor(5)
	got, err := call("Gemm", []*tensor.Tensor{a, b, c}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := refMatMul(a, b)
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			want.Set(want.At(i, j)+c.At(j), i, j)
		}
	}
	if !got[0].AllClose(want, 1e-4, 1e-5) {
		t.Errorf("Gemm mismatch %v", got[0].MaxAbsDiff(want))
	}
}

func TestGemmTransposes(t *testing.T) {
	r := tensor.NewRNG(8)
	a := r.RandTensor(4, 3) // transA -> 3x4
	b := r.RandTensor(5, 4) // transB -> 4x5
	got, err := call("Gemm", []*tensor.Tensor{a, b}, Attrs{"transA": 1, "transB": 1})
	if err != nil {
		t.Fatal(err)
	}
	at := tensor.Zeros(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(a.At(i, j), j, i)
		}
	}
	bt := tensor.Zeros(4, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			bt.Set(b.At(i, j), j, i)
		}
	}
	want := refMatMul(at, bt)
	if !got[0].AllClose(want, 1e-4, 1e-5) {
		t.Errorf("Gemm transpose mismatch %v", got[0].MaxAbsDiff(want))
	}
}

func TestGemmAlphaBeta(t *testing.T) {
	a := tensor.Full(1, 2, 2)
	b := tensor.Full(1, 2, 2)
	c := tensor.Full(10, 2, 2)
	got, err := call("Gemm", []*tensor.Tensor{a, b, c}, Attrs{"alpha": 0.5, "beta": 2.0})
	if err != nil {
		t.Fatal(err)
	}
	// 0.5*(1*1+1*1) + 2*10 = 21
	if got[0].Data()[0] != 21 {
		t.Fatalf("Gemm alpha/beta = %v, want 21", got[0].Data()[0])
	}
}

func TestGemmErrors(t *testing.T) {
	if _, err := call("Gemm", []*tensor.Tensor{tensor.Zeros(2, 3), tensor.Zeros(2, 3)}, nil); err == nil {
		t.Error("inner mismatch accepted")
	}
	if _, err := call("Gemm", []*tensor.Tensor{tensor.Zeros(2, 3), tensor.Zeros(3, 4), tensor.Zeros(3)}, nil); err == nil {
		t.Error("bad C shape accepted")
	}
}

// Property: matmul with identity returns the original matrix.
func TestMatMulIdentityProperty(t *testing.T) {
	f := func(seed uint32, n0 uint8) bool {
		n := int(n0%6) + 1
		r := tensor.NewRNG(uint64(seed) + 1)
		a := r.RandTensor(n, n)
		eye := tensor.Zeros(n, n)
		for i := 0; i < n; i++ {
			eye.Set(1, i, i)
		}
		out, err := call("MatMul", []*tensor.Tensor{a, eye}, nil)
		if err != nil {
			return false
		}
		return out[0].AllClose(a, 1e-5, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ via Gemm transposes.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed uint32) bool {
		r := tensor.NewRNG(uint64(seed)*7 + 3)
		a := r.RandTensor(3, 4)
		b := r.RandTensor(4, 2)
		ab, err := call("MatMul", []*tensor.Tensor{a, b}, nil)
		if err != nil {
			return false
		}
		btat, err := call("Gemm", []*tensor.Tensor{b, a}, Attrs{"transA": 1, "transB": 1})
		if err != nil {
			return false
		}
		// btat should equal transpose of ab.
		for i := 0; i < 3; i++ {
			for j := 0; j < 2; j++ {
				d := float64(ab[0].At(i, j) - btat[0].At(j, i))
				if d > 1e-4 || d < -1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestGemmBiasForms checks every C form Gemm accepts, with beta 1, 0.5
// and 0 and each activation, bit for bit against the product followed by
// a separate beta·C sweep and the activation — the row-vector C rides the
// GEMM writeback as its bias, the others are added after it.
func TestGemmBiasForms(t *testing.T) {
	r := tensor.NewRNG(12)
	m, k, n := 7, 300, 19 // edge tiles, two K panels
	a, b := r.RandTensor(m, k), r.RandTensor(k, n)
	ar := tensor.NewArena()
	for _, cs := range []tensor.Shape{{n}, {1, n}, {m, n}, {1}} {
		c := r.RandTensor(cs...)
		for _, beta := range []float64{1, 0.5, 0} {
			for _, epiOp := range []string{"", "Relu", "Clip"} {
				attrs := Attrs{"alpha": 0.75, "beta": beta}
				if epiOp != "" {
					attrs = mergeAttrs(attrs, EpilogueAttrs(epiOp, Attrs{"min": -0.5, "max": 0.5}))
				}
				want := make([]float32, m*n)
				kernels.Gemm(0.75, m, n, k, a.Data(), k, false, b.Data(), n, false, want, nil)
				epi := epilogueOf(attrs)
				for i := range want {
					if beta != 0 {
						want[i] += float32(beta) * c.Data()[i%c.Numel()]
					}
					want[i] = epi.Val(want[i])
				}
				for _, consts := range [][]*tensor.Tensor{nil, {nil, b}} {
					k, _ := Bind("Gemm", attrs, consts)
					for _, alc := range []tensor.Allocator{nil, ar} {
						got, err := k.Run([]*tensor.Tensor{a, b, c}, alc, false)
						if err != nil {
							t.Fatal(err)
						}
						if !bitsEqual(got[0].Data(), want) {
							t.Fatalf("C %v beta %v epi %q prepacked %v: differs from the separate sweep", cs, beta, epiOp, consts != nil)
						}
					}
				}
			}
		}
	}
}
