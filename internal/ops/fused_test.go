package ops

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// chainRef runs the stage ops through the ordinary registry kernels, one
// node at a time — the semantics FusedElementwise must reproduce.
func chainRef(t *testing.T, x *tensor.Tensor, steps []struct {
	op    string
	attrs Attrs
	extra *tensor.Tensor
	swap  bool
}) *tensor.Tensor {
	t.Helper()
	cur := x
	for _, s := range steps {
		in := []*tensor.Tensor{cur}
		if s.extra != nil {
			if s.swap {
				in = []*tensor.Tensor{s.extra, cur}
			} else {
				in = []*tensor.Tensor{cur, s.extra}
			}
		}
		outs, err := call(s.op, in, s.attrs)
		if err != nil {
			t.Fatal(err)
		}
		cur = outs[0]
	}
	return cur
}

// buildFused assembles the FusedElementwise inputs and attrs for the steps.
func buildFused(steps []struct {
	op    string
	attrs Attrs
	extra *tensor.Tensor
	swap  bool
}, x *tensor.Tensor) ([]*tensor.Tensor, Attrs) {
	in := []*tensor.Tensor{x}
	var acc Attrs
	for _, s := range steps {
		arg := -1
		if s.extra != nil {
			in = append(in, s.extra)
			arg = len(in) - 1
		}
		acc = FusedStageAttrs(acc, s.op, s.attrs, arg, s.swap)
	}
	return in, acc
}

type chainStep = struct {
	op    string
	attrs Attrs
	extra *tensor.Tensor
	swap  bool
}

func TestFusedChainMatchesUnfused(t *testing.T) {
	r := tensor.NewRNG(21)
	x := r.RandTensor(2, 3, 5, 7)
	same := r.RandTensor(2, 3, 5, 7)
	steps := []chainStep{
		{op: "Add", extra: same},
		{op: "Relu"},
		{op: "Mul", extra: tensor.Scalar(0.5)},
		{op: "LeakyRelu", attrs: Attrs{"alpha": 0.2}},
		{op: "Tanh"},
		{op: "Clip", attrs: Attrs{"min": -0.4, "max": 0.4}},
		{op: "Sigmoid"},
	}
	want := chainRef(t, x, steps)
	in, attrs := buildFused(steps, x)
	got, err := call("FusedElementwise", in, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Shape().Equal(want.Shape()) {
		t.Fatalf("shape %v, want %v", got[0].Shape(), want.Shape())
	}
	if !got[0].AllClose(want, 1e-6, 1e-7) {
		t.Fatalf("fused chain diverges: max diff %v", got[0].MaxAbsDiff(want))
	}
}

func TestFusedSwappedSubDiv(t *testing.T) {
	r := tensor.NewRNG(3)
	x := r.RandTensor(4, 9)
	e := r.RandTensor(4, 9)
	steps := []chainStep{
		{op: "Sub", extra: e, swap: true},                // e - x
		{op: "Div", extra: tensor.Scalar(2), swap: true}, // 2 / v
	}
	want := chainRef(t, x, steps)
	in, attrs := buildFused(steps, x)
	got, err := call("FusedElementwise", in, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].AllClose(want, 1e-6, 1e-7) {
		t.Fatal("swapped Sub/Div chain diverges")
	}
}

// TestFusedBroadcastFallback drives a chain containing a genuinely
// broadcasting stage (channel bias against an NCHW map): the kernel must
// fall back stage-wise and still match the unfused result, including the
// broadcast output shape.
func TestFusedBroadcastFallback(t *testing.T) {
	r := tensor.NewRNG(9)
	x := r.RandTensor(2, 3, 4, 4)
	bias := tensor.New(tensor.Shape{1, 3, 1, 1}, []float32{1, -2, 3})
	steps := []chainStep{
		{op: "Relu"},
		{op: "Add", extra: bias},
		{op: "Mul", extra: tensor.Scalar(2)},
	}
	want := chainRef(t, x, steps)
	in, attrs := buildFused(steps, x)
	got, err := call("FusedElementwise", in, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Shape().Equal(want.Shape()) {
		t.Fatalf("shape %v, want %v", got[0].Shape(), want.Shape())
	}
	if !got[0].AllClose(want, 1e-6, 1e-7) {
		t.Fatal("broadcast-fallback chain diverges")
	}
}

// TestFusedOutputNeverAliasesInput pins the kernel contract the memory
// planner relies on: the registry path allocates a fresh output.
func TestFusedOutputNeverAliasesInput(t *testing.T) {
	x := tensor.FromSlice([]float32{-1, 2})
	in, attrs := buildFused([]chainStep{{op: "Relu"}, {op: "Tanh"}}, x)
	got, err := call("FusedElementwise", in, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0].Data()[0] == &x.Data()[0] {
		t.Fatal("registry FusedElementwise aliased its input")
	}
	if x.Data()[0] != -1 || x.Data()[1] != 2 {
		t.Fatal("registry FusedElementwise mutated its input")
	}
}

func TestFusedRejectsBadEncoding(t *testing.T) {
	x := tensor.FromSlice([]float32{1})
	if _, err := call("FusedElementwise", []*tensor.Tensor{x}, Attrs{}); err == nil {
		t.Error("missing fe_ops accepted")
	}
	// Binary stage referencing an input index that does not exist.
	attrs := FusedStageAttrs(nil, "Add", nil, 3, false)
	attrs = FusedStageAttrs(attrs, "Relu", nil, -1, false)
	if _, err := call("FusedElementwise", []*tensor.Tensor{x}, attrs); err == nil {
		t.Error("out-of-range fe_args accepted")
	}
}

// TestPrepackedFusedMatchesRegistry covers the bound stage program: Bind
// decodes the chain once, and both the out-of-place and the in-place runs
// of the binding must match the op-at-a-time registry chain.
func TestPrepackedFusedMatchesRegistry(t *testing.T) {
	r := tensor.NewRNG(23)
	x := r.RandTensor(3, 11)
	same := r.RandTensor(3, 11)
	steps := []chainStep{{op: "Add", extra: same}, {op: "Relu"}, {op: "Tanh"}}
	want := chainRef(t, x.Clone(), steps)
	in, attrs := buildFused(steps, x)

	k, err := Bind("FusedElementwise", attrs, make([]*tensor.Tensor, len(in)))
	if err != nil {
		t.Fatal(err)
	}
	if k.Packed != nil {
		t.Error("stage program reported as packed weights")
	}
	if !k.InPlace() {
		t.Fatal("FusedElementwise binding has no in-place form")
	}
	got, err := k.Run(in, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].AllClose(want, 1e-7, 1e-8) {
		t.Fatal("bound fused execution diverges")
	}
	gotIP, err := k.Run(in, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if !gotIP[0].AllClose(want, 1e-7, 1e-8) {
		t.Fatal("bound in-place fused execution diverges")
	}
	if &gotIP[0].Data()[0] != &x.Data()[0] {
		t.Fatal("bound in-place execution did not reuse the input buffer")
	}
}

// TestRunInPlaceUnaryMatchesAndAliases runs every registered op whose
// binding reports an in-place form both ways: the in-place result must be
// bit-identical to the out-of-place one and share the input's buffer.
func TestRunInPlaceUnaryMatchesAndAliases(t *testing.T) {
	r := tensor.NewRNG(31)
	// Ops whose defaults would make the check vacuous or invalid.
	attrsOf := map[string]Attrs{
		"LeakyRelu":        {"alpha": 0.3},
		"Clip":             {"min": -0.5, "max": 0.5},
		"FusedElementwise": FusedStageAttrs(FusedStageAttrs(nil, "Sigmoid", nil, -1, false), "Clip", Attrs{"min": 0.2, "max": 0.7}, -1, false),
	}
	var checked []string
	for _, op := range Names() {
		k, err := Bind(op, attrsOf[op], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !k.InPlace() {
			continue
		}
		checked = append(checked, op)
		x := r.RandTensor(3, 17) // mixed signs: Sqrt's NaNs must match too
		want, err := k.Run([]*tensor.Tensor{x.Clone()}, nil, false)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		got, err := k.Run([]*tensor.Tensor{x}, nil, true)
		if err != nil {
			t.Fatalf("%s in place: %v", op, err)
		}
		if !bitsEqual(got[0].Data(), want[0].Data()) || !got[0].Shape().Equal(want[0].Shape()) {
			t.Errorf("%s: in-place result diverges", op)
		}
		if &got[0].Data()[0] != &x.Data()[0] {
			t.Errorf("%s: in-place output does not share the input buffer", op)
		}
	}
	for _, op := range []string{"Relu", "Sqrt", "Identity", "FusedElementwise"} {
		if !slices.Contains(checked, op) {
			t.Errorf("%s binding has no in-place form", op)
		}
	}
}

// bitsEqual compares float slices bit for bit, so NaNs compare equal to
// themselves.
func bitsEqual(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

func TestRunInPlaceFusedSharesBuffer(t *testing.T) {
	r := tensor.NewRNG(8)
	x := r.RandTensor(2, 3, 4, 4)
	same := r.RandTensor(2, 3, 4, 4)
	steps := []chainStep{{op: "Add", extra: same}, {op: "Relu"}}
	want := chainRef(t, x.Clone(), steps)
	in, attrs := buildFused(steps, x)
	k, _ := Bind("FusedElementwise", attrs, nil)
	got, err := k.Run(in, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].AllClose(want, 1e-6, 1e-7) {
		t.Fatal("in-place fused chain diverges")
	}
	if &got[0].Data()[0] != &x.Data()[0] {
		t.Fatal("in-place fused chain did not reuse the input buffer")
	}
}

// TestRunInPlaceFusedBroadcastReturnsBuffer checks the ownership-transfer
// contract on the shape-changing fallback: the abandoned input buffer goes
// back to the allocator instead of leaking out of the arena accounting.
func TestRunInPlaceFusedBroadcastReturnsBuffer(t *testing.T) {
	ar := tensor.NewArena()
	r := tensor.NewRNG(13)
	xHeap := r.RandTensor(2, 3, 4, 4)
	bias := tensor.New(tensor.Shape{1, 3, 1, 1}, []float32{1, -2, 3})
	steps := []chainStep{{op: "Relu"}, {op: "Add", extra: bias}}
	want := chainRef(t, xHeap.Clone(), steps)

	x := xHeap.CloneIn(ar) // arena-owned input, as in a real run
	in, attrs := buildFused(steps, x)
	putsBefore := ar.Stats().Snapshot().Puts
	k, _ := Bind("FusedElementwise", attrs, nil)
	got, err := k.Run(in, ar, true)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].AllClose(want, 1e-6, 1e-7) {
		t.Fatal("broadcast in-place chain diverges")
	}
	if puts := ar.Stats().Snapshot().Puts; puts <= putsBefore {
		t.Error("abandoned input buffer was not returned to the arena")
	}
}

// TestFusedChainsMatchReferenceRandom draws random chains of the chainable
// ops over scalar, same-shape and broadcasting operands, in both operand
// orders, and checks the bound FusedElementwise chain — out of place, and
// in place on an arena — against a stage-by-stage reference built from the
// function-pointer kernels unary and binary, which never run the
// elementwise engine under test.
func TestFusedChainsMatchReferenceRandom(t *testing.T) {
	shapes := []tensor.Shape{{}, {1}, {32}, {16, 32}, {1, 16, 32}, {4, 1}, {1, 5}, {2, 3, 1, 1}, {1, 3, 1, 1}}
	chainable := []string{"Relu", "LeakyRelu", "Sigmoid", "Tanh", "Clip", "Erf", "Exp", "Neg", "Sqrt", "Add", "Mul", "Sub", "Div"}
	pick := rand.New(rand.NewSource(29))
	r := tensor.NewRNG(29)
	randTensor := func() *tensor.Tensor { return r.RandTensor(shapes[pick.Intn(len(shapes))]...) }
	ran := 0
	for c := 0; c < 4000; c++ {
		x := randTensor()
		in := []*tensor.Tensor{x}
		var attrs Attrs
		want, wantErr := x, error(nil)
		for n := 1 + pick.Intn(3); n > 0; n-- {
			op := chainable[pick.Intn(len(chainable))]
			var opAttrs Attrs
			ref := []*tensor.Tensor{want}
			arg, swap := -1, false
			var k AllocKernel
			switch op {
			case "Relu":
				k = unary(op, func(v float32) float32 { return max(v, 0) })
			case "LeakyRelu":
				alpha := pick.Float64()
				opAttrs = Attrs{"alpha": alpha}
				k = unary(op, func(v float32) float32 {
					if v < 0 {
						return float32(alpha) * v
					}
					return v
				})
			case "Sigmoid":
				k = unary(op, func(v float32) float32 { return float32(1 / (1 + math.Exp(-float64(v)))) })
			case "Tanh":
				k = unary(op, func(v float32) float32 { return float32(math.Tanh(float64(v))) })
			case "Clip":
				lo, hi := -pick.Float64()/4, pick.Float64()/4
				opAttrs = Attrs{"min": lo, "max": hi}
				k = unary(op, func(v float32) float32 { return min(max(v, float32(lo)), float32(hi)) })
			case "Erf":
				k = unary(op, func(v float32) float32 { return float32(math.Erf(float64(v))) })
			case "Exp":
				k = unary(op, func(v float32) float32 { return float32(math.Exp(float64(v))) })
			case "Neg":
				k = unary(op, func(v float32) float32 { return -v })
			case "Sqrt":
				k = unary(op, func(v float32) float32 { return float32(math.Sqrt(float64(v))) })
			default:
				f := map[string]func(a, b float32) float32{
					"Add": func(a, b float32) float32 { return a + b },
					"Mul": func(a, b float32) float32 { return a * b },
					"Sub": func(a, b float32) float32 { return a - b },
					"Div": func(a, b float32) float32 { return a / b },
				}[op]
				k = binary(op, f)
				e := randTensor()
				in = append(in, e)
				arg, swap = len(in)-1, pick.Intn(2) == 1
				if swap {
					ref = []*tensor.Tensor{e, want}
				} else {
					ref = append(ref, e)
				}
			}
			attrs = FusedStageAttrs(attrs, op, opAttrs, arg, swap)
			if wantErr == nil {
				var outs []*tensor.Tensor
				if outs, wantErr = k(ref, nil, nil); wantErr == nil {
					want = outs[0]
				}
			}
		}
		fused, err := Bind("FusedElementwise", attrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		ar := tensor.NewArena()
		inPlace := append([]*tensor.Tensor{x.CloneIn(ar)}, in[1:]...)
		for _, run := range []struct {
			name    string
			in      []*tensor.Tensor
			a       tensor.Allocator
			inPlace bool
		}{{"out of place", in, nil, false}, {"in place", inPlace, ar, true}} {
			got, err := fused.Run(run.in, run.a, run.inPlace)
			switch {
			case wantErr != nil && err == nil:
				t.Fatalf("chain %d %q %s: accepted, reference failed: %v", c, attrs[AttrFusedOps], run.name, wantErr)
			case wantErr == nil && err != nil:
				t.Fatalf("chain %d %q %s: %v", c, attrs[AttrFusedOps], run.name, err)
			case err != nil:
				continue
			case !got[0].Shape().Equal(want.Shape()):
				t.Fatalf("chain %d %q %s: shape %v, want %v", c, attrs[AttrFusedOps], run.name, got[0].Shape(), want.Shape())
			case !got[0].AllClose(want, 1e-5, 1e-5): // NaN (Sqrt of a negative) only where the reference has it
				t.Fatalf("chain %d %q %s: max diff %v", c, attrs[AttrFusedOps], run.name, got[0].MaxAbsDiff(want))
			}
			ran++
		}
	}
	t.Logf("%d of 8000 runs checked", ran)
	if ran < 4000 {
		t.Fatalf("only %d of 8000 runs had broadcast-compatible shapes", ran)
	}
}
