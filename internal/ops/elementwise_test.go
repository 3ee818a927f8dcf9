package ops

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestReluSigmoidTanh(t *testing.T) {
	x := tensor.FromSlice([]float32{-2, -0.5, 0, 0.5, 2})
	out, err := call("Relu", []*tensor.Tensor{x}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 0, 0, 0.5, 2}
	for i, v := range want {
		if out[0].Data()[i] != v {
			t.Fatalf("Relu = %v", out[0].Data())
		}
	}
	sig, _ := call("Sigmoid", []*tensor.Tensor{tensor.Scalar(0)}, nil)
	if math.Abs(float64(sig[0].Data()[0])-0.5) > 1e-6 {
		t.Errorf("Sigmoid(0) = %v", sig[0].Data()[0])
	}
	th, _ := call("Tanh", []*tensor.Tensor{tensor.Scalar(0)}, nil)
	if th[0].Data()[0] != 0 {
		t.Errorf("Tanh(0) = %v", th[0].Data()[0])
	}
}

func TestLeakyReluClip(t *testing.T) {
	x := tensor.FromSlice([]float32{-10, 10})
	lr, err := call("LeakyRelu", []*tensor.Tensor{x}, Attrs{"alpha": 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(lr[0].Data()[0]+1)) > 1e-6 || lr[0].Data()[1] != 10 {
		t.Errorf("LeakyRelu = %v", lr[0].Data())
	}
	cl, err := call("Clip", []*tensor.Tensor{x}, Attrs{"min": -1.0, "max": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if cl[0].Data()[0] != -1 || cl[0].Data()[1] != 1 {
		t.Errorf("Clip = %v", cl[0].Data())
	}
}

func TestAddBroadcastChannelBias(t *testing.T) {
	x := tensor.Zeros(2, 3, 2, 2)
	for i := range x.Data() {
		x.Data()[i] = float32(i)
	}
	bias := tensor.New(tensor.Shape{1, 3, 1, 1}, []float32{100, 200, 300})
	out, err := call("Add", []*tensor.Tensor{x, bias}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].At(0, 0, 0, 0) != 100 || out[0].At(0, 1, 0, 0) != 204 || out[0].At(1, 2, 1, 1) != 323 {
		t.Errorf("broadcast Add wrong: %v", out[0].Data())
	}
}

func TestBinarySameShapeFastPath(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2, 3})
	b := tensor.FromSlice([]float32{4, 5, 6})
	got, err := call("Mul", []*tensor.Tensor{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{4, 10, 18}
	for i, v := range want {
		if got[0].Data()[i] != v {
			t.Fatalf("Mul = %v", got[0].Data())
		}
	}
	d, _ := call("Div", []*tensor.Tensor{a, b}, nil)
	if math.Abs(float64(d[0].Data()[0])-0.25) > 1e-6 {
		t.Errorf("Div = %v", d[0].Data())
	}
	s, _ := call("Sub", []*tensor.Tensor{a, b}, nil)
	if s[0].Data()[2] != -3 {
		t.Errorf("Sub = %v", s[0].Data())
	}
}

func TestBinaryShapeError(t *testing.T) {
	if _, err := call("Add", []*tensor.Tensor{tensor.Zeros(3), tensor.Zeros(4)}, nil); err == nil {
		t.Error("incompatible broadcast accepted")
	}
}

func TestPow(t *testing.T) {
	a := tensor.FromSlice([]float32{2, 3})
	b := tensor.Scalar(2)
	out, err := call("Pow", []*tensor.Tensor{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Data()[0] != 4 || out[0].Data()[1] != 9 {
		t.Errorf("Pow = %v", out[0].Data())
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := tensor.NewRNG(17)
	x := r.RandTensor(4, 7)
	out, err := call("Softmax", []*tensor.Tensor{x}, Attrs{"axis": -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		var sum float64
		for j := 0; j < 7; j++ {
			v := out[0].At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v outside [0,1]", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxAxis0(t *testing.T) {
	x := tensor.New(tensor.Shape{2, 2}, []float32{0, 0, 0, 0})
	out, err := call("Softmax", []*tensor.Tensor{x}, Attrs{"axis": 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out[0].Data() {
		if v != 0.5 {
			t.Fatalf("uniform softmax axis 0 = %v", out[0].Data())
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	// Large logits must not overflow to NaN.
	x := tensor.FromSlice([]float32{1000, 1001, 1002})
	out, err := call("Softmax", []*tensor.Tensor{x}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range out[0].Data() {
		if v != v { // NaN
			t.Fatal("softmax produced NaN on large logits")
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Errorf("sum = %v", sum)
	}
}

func TestErfNegSqrtExp(t *testing.T) {
	e, _ := call("Erf", []*tensor.Tensor{tensor.Scalar(0)}, nil)
	if e[0].Data()[0] != 0 {
		t.Errorf("Erf(0) = %v", e[0].Data()[0])
	}
	n, _ := call("Neg", []*tensor.Tensor{tensor.Scalar(3)}, nil)
	if n[0].Data()[0] != -3 {
		t.Errorf("Neg(3) = %v", n[0].Data()[0])
	}
	s, _ := call("Sqrt", []*tensor.Tensor{tensor.Scalar(9)}, nil)
	if s[0].Data()[0] != 3 {
		t.Errorf("Sqrt(9) = %v", s[0].Data()[0])
	}
	x, _ := call("Exp", []*tensor.Tensor{tensor.Scalar(0)}, nil)
	if x[0].Data()[0] != 1 {
		t.Errorf("Exp(0) = %v", x[0].Data()[0])
	}
}

func TestIdentityCopies(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2})
	out, err := call("Identity", []*tensor.Tensor{x}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out[0].Data()[0] = 99
	if x.Data()[0] != 1 {
		t.Error("Identity aliases its input")
	}
}

// Property: Relu is idempotent.
func TestReluIdempotent(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		x := tensor.FromSlice(vals)
		once, err := call("Relu", []*tensor.Tensor{x}, nil)
		if err != nil {
			return false
		}
		twice, err := call("Relu", once, nil)
		if err != nil {
			return false
		}
		return once[0].Equal(twice[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Add is commutative for same-shape inputs.
func TestAddCommutative(t *testing.T) {
	f := func(a, b []float32) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		ta := tensor.FromSlice(a[:n])
		tb := tensor.FromSlice(b[:n])
		ab, err1 := call("Add", []*tensor.Tensor{ta, tb}, nil)
		ba, err2 := call("Add", []*tensor.Tensor{tb, ta}, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		return ab[0].Equal(ba[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
