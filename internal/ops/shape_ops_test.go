package ops

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestConcatOpAxis1(t *testing.T) {
	a := tensor.Full(1, 1, 2, 2, 2)
	b := tensor.Full(2, 1, 3, 2, 2)
	out, err := call("Concat", []*tensor.Tensor{a, b}, Attrs{"axis": 1})
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Shape().Equal(tensor.Shape{1, 5, 2, 2}) {
		t.Fatalf("shape = %v", out[0].Shape())
	}
	if out[0].At(0, 1, 1, 1) != 1 || out[0].At(0, 2, 0, 0) != 2 {
		t.Error("concat values misplaced")
	}
}

func TestConcatOpAxis0AndErrors(t *testing.T) {
	a := tensor.Full(1, 2, 3)
	b := tensor.Full(2, 1, 3)
	out, err := call("Concat", []*tensor.Tensor{a, b}, Attrs{"axis": 0})
	if err != nil || !out[0].Shape().Equal(tensor.Shape{3, 3}) {
		t.Fatalf("concat axis0 = %v, %v", out, err)
	}
	if _, err := call("Concat", []*tensor.Tensor{a, tensor.Zeros(1, 4)}, Attrs{"axis": 0}); err == nil {
		t.Error("mismatched concat accepted")
	}
	if _, err := call("Concat", nil, Attrs{"axis": 0}); err == nil {
		t.Error("empty concat accepted")
	}
}

func TestReshapeOpBothForms(t *testing.T) {
	x := tensor.Zeros(2, 6)
	shape := tensor.FromSlice([]float32{3, 4})
	out, err := call("Reshape", []*tensor.Tensor{x, shape}, nil)
	if err != nil || !out[0].Shape().Equal(tensor.Shape{3, 4}) {
		t.Fatalf("reshape tensor form = %v, %v", out, err)
	}
	out, err = call("Reshape", []*tensor.Tensor{x}, Attrs{"shape": []int{4, -1}})
	if err != nil || !out[0].Shape().Equal(tensor.Shape{4, 3}) {
		t.Fatalf("reshape attr form = %v, %v", out, err)
	}
	// Zero means copy input dim.
	out, err = call("Reshape", []*tensor.Tensor{x}, Attrs{"shape": []int{0, -1}})
	if err != nil || !out[0].Shape().Equal(tensor.Shape{2, 6}) {
		t.Fatalf("reshape 0-dim = %v, %v", out, err)
	}
	if _, err := call("Reshape", []*tensor.Tensor{x}, nil); err == nil {
		t.Error("reshape with no shape accepted")
	}
}

func TestFlatten(t *testing.T) {
	x := tensor.Zeros(2, 3, 4, 5)
	out, err := call("Flatten", []*tensor.Tensor{x}, nil)
	if err != nil || !out[0].Shape().Equal(tensor.Shape{2, 60}) {
		t.Fatalf("Flatten = %v, %v", out, err)
	}
	out, err = call("Flatten", []*tensor.Tensor{x}, Attrs{"axis": 2})
	if err != nil || !out[0].Shape().Equal(tensor.Shape{6, 20}) {
		t.Fatalf("Flatten axis2 = %v, %v", out, err)
	}
}

func TestTranspose(t *testing.T) {
	x := tensor.New(tensor.Shape{2, 3}, []float32{1, 2, 3, 4, 5, 6})
	out, err := call("Transpose", []*tensor.Tensor{x}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Shape().Equal(tensor.Shape{3, 2}) {
		t.Fatalf("shape = %v", out[0].Shape())
	}
	if out[0].At(0, 1) != 4 || out[0].At(2, 0) != 3 {
		t.Errorf("transpose values: %v", out[0].Data())
	}
	// Explicit permutation on rank 3.
	y := tensor.Zeros(2, 3, 4)
	for i := range y.Data() {
		y.Data()[i] = float32(i)
	}
	out, err = call("Transpose", []*tensor.Tensor{y}, Attrs{"perm": []int{1, 0, 2}})
	if err != nil || !out[0].Shape().Equal(tensor.Shape{3, 2, 4}) {
		t.Fatalf("perm transpose = %v, %v", out, err)
	}
	if out[0].At(1, 1, 2) != y.At(1, 1, 2) {
		t.Error("perm transpose moved wrong element")
	}
	if _, err := call("Transpose", []*tensor.Tensor{y}, Attrs{"perm": []int{0, 0, 1}}); err == nil {
		t.Error("duplicate perm accepted")
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := tensor.NewRNG(12)
	x := r.RandTensor(3, 4, 5)
	once, err := call("Transpose", []*tensor.Tensor{x}, Attrs{"perm": []int{2, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	back, err := call("Transpose", once, Attrs{"perm": []int{1, 2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !back[0].Equal(x) {
		t.Error("transpose round trip changed data")
	}
}

func TestSlice(t *testing.T) {
	x := tensor.Zeros(4, 5)
	for i := range x.Data() {
		x.Data()[i] = float32(i)
	}
	out, err := call("Slice", []*tensor.Tensor{x}, Attrs{"starts": []int{1, 2}, "ends": []int{3, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Shape().Equal(tensor.Shape{2, 3}) {
		t.Fatalf("shape = %v", out[0].Shape())
	}
	if out[0].At(0, 0) != x.At(1, 2) || out[0].At(1, 2) != x.At(2, 4) {
		t.Error("slice values wrong")
	}
	// Negative indices and axes subset.
	out, err = call("Slice", []*tensor.Tensor{x}, Attrs{"starts": []int{-2}, "ends": []int{4}, "axes": []int{0}})
	if err != nil || !out[0].Shape().Equal(tensor.Shape{2, 5}) {
		t.Fatalf("negative slice = %v, %v", out, err)
	}
	// Clamped out-of-range end.
	out, err = call("Slice", []*tensor.Tensor{x}, Attrs{"starts": []int{0}, "ends": []int{99}, "axes": []int{1}})
	if err != nil || !out[0].Shape().Equal(tensor.Shape{4, 5}) {
		t.Fatalf("clamped slice = %v, %v", out, err)
	}
	if _, err := call("Slice", []*tensor.Tensor{x}, Attrs{"starts": []int{0}}); err == nil {
		t.Error("missing ends accepted")
	}
}

func TestGather(t *testing.T) {
	x := tensor.New(tensor.Shape{3, 2}, []float32{10, 11, 20, 21, 30, 31})
	idx := tensor.FromSlice([]float32{2, 0})
	out, err := call("Gather", []*tensor.Tensor{x, idx}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Shape().Equal(tensor.Shape{2, 2}) {
		t.Fatalf("shape = %v", out[0].Shape())
	}
	if out[0].At(0, 0) != 30 || out[0].At(1, 1) != 11 {
		t.Errorf("gather values: %v", out[0].Data())
	}
	// Axis 1 gather.
	out, err = call("Gather", []*tensor.Tensor{x, tensor.FromSlice([]float32{1})}, Attrs{"axis": 1})
	if err != nil || !out[0].Shape().Equal(tensor.Shape{3, 1}) {
		t.Fatalf("gather axis1 = %v, %v", out, err)
	}
	if out[0].At(0, 0) != 11 {
		t.Error("gather axis1 value wrong")
	}
	// Out of range index.
	if _, err := call("Gather", []*tensor.Tensor{x, tensor.FromSlice([]float32{7})}, nil); err == nil {
		t.Error("out-of-range gather accepted")
	}
}

func TestSplit(t *testing.T) {
	x := tensor.Zeros(2, 6)
	for i := range x.Data() {
		x.Data()[i] = float32(i)
	}
	outs, err := call("Split", []*tensor.Tensor{x}, Attrs{"axis": 1, "num": 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("got %d outputs", len(outs))
	}
	for _, o := range outs {
		if !o.Shape().Equal(tensor.Shape{2, 2}) {
			t.Fatalf("split shape = %v", o.Shape())
		}
	}
	if outs[1].At(0, 0) != 2 || outs[2].At(1, 1) != 11 {
		t.Error("split values wrong")
	}
	// Uneven explicit sizes.
	outs, err = call("Split", []*tensor.Tensor{x}, Attrs{"axis": 1, "split": []int{1, 5}})
	if err != nil || len(outs) != 2 || !outs[1].Shape().Equal(tensor.Shape{2, 5}) {
		t.Fatalf("explicit split = %v, %v", outs, err)
	}
	if _, err := call("Split", []*tensor.Tensor{x}, Attrs{"axis": 1, "num": 4}); err == nil {
		t.Error("indivisible split accepted")
	}
	if _, err := call("Split", []*tensor.Tensor{x}, Attrs{"axis": 1, "split": []int{2, 2}}); err == nil {
		t.Error("wrong-sum split accepted")
	}
}

func TestSqueezeUnsqueeze(t *testing.T) {
	x := tensor.Zeros(1, 3, 1, 2)
	out, err := call("Squeeze", []*tensor.Tensor{x}, nil)
	if err != nil || !out[0].Shape().Equal(tensor.Shape{3, 2}) {
		t.Fatalf("Squeeze all = %v, %v", out, err)
	}
	out, err = call("Squeeze", []*tensor.Tensor{x}, Attrs{"axes": []int{0}})
	if err != nil || !out[0].Shape().Equal(tensor.Shape{3, 1, 2}) {
		t.Fatalf("Squeeze axis0 = %v, %v", out, err)
	}
	if _, err := call("Squeeze", []*tensor.Tensor{x}, Attrs{"axes": []int{1}}); err == nil {
		t.Error("squeeze of non-unit dim accepted")
	}
	back, err := call("Unsqueeze", []*tensor.Tensor{tensor.Zeros(3, 2)}, Attrs{"axes": []int{0, 2}})
	if err != nil || !back[0].Shape().Equal(tensor.Shape{1, 3, 1, 2}) {
		t.Fatalf("Unsqueeze = %v, %v", back, err)
	}
}

func TestShapeOpAndConstant(t *testing.T) {
	x := tensor.Zeros(2, 3, 4)
	out, err := call("Shape", []*tensor.Tensor{x}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{2, 3, 4}
	for i, v := range want {
		if out[0].Data()[i] != v {
			t.Fatalf("Shape = %v", out[0].Data())
		}
	}
	c, err := call("Constant", nil, Attrs{"value": []float32{1, 2, 3, 4}, "shape": []int{2, 2}})
	if err != nil || !c[0].Shape().Equal(tensor.Shape{2, 2}) {
		t.Fatalf("Constant = %v, %v", c, err)
	}
	if _, err := call("Constant", nil, Attrs{}); err == nil {
		t.Error("Constant without value accepted")
	}
	if _, err := call("Constant", []*tensor.Tensor{x}, Attrs{"value": []float32{1}}); err == nil {
		t.Error("Constant with inputs accepted")
	}
}

func TestBatchNormInference(t *testing.T) {
	x := tensor.New(tensor.Shape{1, 2, 1, 2}, []float32{1, 2, 3, 4})
	scale := tensor.FromSlice([]float32{1, 2})
	bias := tensor.FromSlice([]float32{0, 1})
	mean := tensor.FromSlice([]float32{1.5, 3.5})
	variance := tensor.FromSlice([]float32{0.25, 0.25})
	out, err := call("BatchNormalization", []*tensor.Tensor{x, scale, bias, mean, variance}, Attrs{"epsilon": 0.0})
	if err != nil {
		t.Fatal(err)
	}
	// channel 0: (1-1.5)/0.5=-1, (2-1.5)/0.5=1
	// channel 1: 2*(3-3.5)/0.5+1=-1, 2*(4-3.5)/0.5+1=3
	want := []float32{-1, 1, -1, 3}
	for i, v := range want {
		if math.Abs(float64(out[0].Data()[i]-v)) > 1e-4 {
			t.Fatalf("BatchNorm = %v, want %v", out[0].Data(), want)
		}
	}
	if _, err := call("BatchNormalization", []*tensor.Tensor{x, scale, bias, mean, tensor.FromSlice([]float32{1})}, nil); err == nil {
		t.Error("bad variance length accepted")
	}
}

func TestLayerNorm(t *testing.T) {
	x := tensor.New(tensor.Shape{2, 4}, []float32{1, 2, 3, 4, 4, 3, 2, 1})
	scale := tensor.FromSlice([]float32{1, 1, 1, 1})
	out, err := call("LayerNormalization", []*tensor.Tensor{x, scale}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each row normalized: mean 2.5, values symmetric.
	for row := 0; row < 2; row++ {
		var sum float64
		for j := 0; j < 4; j++ {
			sum += float64(out[0].At(row, j))
		}
		if math.Abs(sum) > 1e-4 {
			t.Errorf("row %d mean not 0: %v", row, sum)
		}
	}
	// With bias.
	bias := tensor.FromSlice([]float32{10, 10, 10, 10})
	out, err = call("LayerNormalization", []*tensor.Tensor{x, scale, bias}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for j := 0; j < 4; j++ {
		sum += float64(out[0].At(0, j))
	}
	if math.Abs(sum-40) > 1e-3 {
		t.Errorf("bias not applied: row sum %v", sum)
	}
}

func TestReduceMean(t *testing.T) {
	x := tensor.New(tensor.Shape{2, 3}, []float32{1, 2, 3, 4, 5, 6})
	out, err := call("ReduceMean", []*tensor.Tensor{x}, Attrs{"axes": []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Shape().Equal(tensor.Shape{2, 1}) {
		t.Fatalf("shape = %v", out[0].Shape())
	}
	if out[0].Data()[0] != 2 || out[0].Data()[1] != 5 {
		t.Errorf("ReduceMean = %v", out[0].Data())
	}
	// All axes, no keepdims.
	out, err = call("ReduceMean", []*tensor.Tensor{x}, Attrs{"keepdims": 0})
	if err != nil || out[0].Rank() != 0 {
		t.Fatalf("full reduce = %v, %v", out, err)
	}
	if out[0].Data()[0] != 3.5 {
		t.Errorf("full mean = %v", out[0].Data()[0])
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"Conv", "Relu", "Concat", "MatMul", "Softmax"} {
		if !Supported(name) {
			t.Errorf("%s not registered", name)
		}
		if _, err := Bind(name, nil, nil); err != nil {
			t.Errorf("Bind(%s): %v", name, err)
		}
	}
	if Supported("NotAnOp") {
		t.Error("bogus op reported supported")
	}
	if _, err := Bind("NotAnOp", nil, nil); err == nil {
		t.Error("Bind of bogus op succeeded")
	}
	names := Names()
	if len(names) < 30 {
		t.Errorf("only %d ops registered", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("Names not sorted")
			break
		}
	}
}

func TestAttrsAccessors(t *testing.T) {
	a := Attrs{
		"i":  3,
		"i6": int64(4),
		"f":  2.5,
		"fj": float64(7), // JSON-decoded int
		"s":  "hello",
		"is": []int{1, 2},
		"ij": []any{float64(3), float64(4)},
		"fs": []float32{1.5},
		"fd": []float64{2.5},
		"fa": []any{float64(0.5)},
	}
	if a.Int("i", 0) != 3 || a.Int("i6", 0) != 4 || a.Int("fj", 0) != 7 || a.Int("missing", 9) != 9 {
		t.Error("Int accessor wrong")
	}
	if a.Float("f", 0) != 2.5 || a.Float("i", 0) != 3 || a.Float("missing", 1.5) != 1.5 {
		t.Error("Float accessor wrong")
	}
	if a.Str("s", "") != "hello" || a.Str("missing", "d") != "d" {
		t.Error("Str accessor wrong")
	}
	if got := a.Ints("is", nil); len(got) != 2 || got[1] != 2 {
		t.Error("Ints accessor wrong")
	}
	if got := a.Ints("ij", nil); len(got) != 2 || got[0] != 3 {
		t.Error("Ints []any accessor wrong")
	}
	if got := a.Floats("fs", nil); len(got) != 1 || got[0] != 1.5 {
		t.Error("Floats accessor wrong")
	}
	if got := a.Floats("fd", nil); len(got) != 1 || got[0] != 2.5 {
		t.Error("Floats []float64 accessor wrong")
	}
	if got := a.Floats("fa", nil); len(got) != 1 || got[0] != 0.5 {
		t.Error("Floats []any accessor wrong")
	}
	c := a.Clone()
	c["i"] = 99
	if a.Int("i", 0) != 3 {
		t.Error("Clone did not copy")
	}
	var nilAttrs Attrs
	if nilAttrs.Int("x", 5) != 5 || nilAttrs.Clone() != nil {
		t.Error("nil Attrs misbehaves")
	}
}
