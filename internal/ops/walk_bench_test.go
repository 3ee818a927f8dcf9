package ops

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// allocCase is one bound kernel on BERT- and inception-sized inputs, with
// the most heap allocations one arena call may make.
type allocCase struct {
	op     string
	attrs  Attrs
	shapes []tensor.Shape
	max    float64
}

var allocCases = []allocCase{
	{"Transpose", Attrs{"perm": []int{0, 2, 1, 3}}, []tensor.Shape{{1, 16, 4, 8}}, 9},
	{"Add", nil, []tensor.Shape{{1, 16, 32}, {32}}, 10},
	{"Slice", Attrs{"starts": []int{16}, "ends": []int{48}, "axes": []int{2}}, []tensor.Shape{{1, 16, 64}}, 8},
	{"Concat", Attrs{"axis": 1}, []tensor.Shape{{1, 64, 25, 25}, {1, 96, 25, 25}}, 5},
	{"Split", Attrs{"axis": 2, "num": 3}, []tensor.Shape{{1, 16, 96}}, 11},
	{"ReduceMean", Attrs{"axes": []int{-1}}, []tensor.Shape{{1, 16, 64}}, 10},
	{"MatMul", nil, []tensor.Shape{{1, 4, 16, 8}, {1, 4, 8, 16}}, 3},
	{"AveragePool", Attrs{"kernel_shape": []int{3, 3}, "strides": []int{1, 1}, "pads": []int{1, 1, 1, 1}},
		[]tensor.Shape{{1, 64, 28, 28}}, 5},
	{"MaxPool", Attrs{"kernel_shape": []int{3, 3}, "strides": []int{2, 2}, "pads": []int{1, 1, 1, 1}},
		[]tensor.Shape{{1, 64, 56, 56}}, 5},
	{"GlobalAveragePool", nil, []tensor.Shape{{1, 2048, 8, 8}}, 5},
	{"LayerNormalization", Attrs{"axis": -1}, []tensor.Shape{{1, 16, 64}, {64}, {64}}, 5},
	{"Softmax", Attrs{"axis": -1}, []tensor.Shape{{1, 4, 16, 16}}, 5},
	{"FusedElementwise", geluStages, []tensor.Shape{{1, 16, 64}, {}, {}, {1, 16, 64}, {}}, 4},
	// BERT's attention scores, reading Q and Kᵀ through views of the
	// [1,16,32] projections.
	{"MatMul", Attrs{AttrViewADims: []int{1, 16, 4, 8}, AttrViewAPerm: []int{0, 2, 1, 3},
		AttrViewBDims: []int{1, 16, 4, 8}, AttrViewBPerm: []int{0, 2, 3, 1}},
		[]tensor.Shape{{1, 16, 32}, {1, 16, 32}}, 3},
	// squeezenet's first MaxPool at 224 px, and one of yolo_v5's SPPF
	// MaxPools at 640 px.
	{"MaxPool", Attrs{"kernel_shape": []int{3, 3}, "strides": []int{2, 2}, "pads": []int{1, 1, 1, 1}},
		[]tensor.Shape{{1, 16, 112, 112}}, 5},
	{"MaxPool", Attrs{"kernel_shape": []int{5, 5}, "strides": []int{1, 1}, "pads": []int{2, 2, 2, 2}},
		[]tensor.Shape{{1, 16, 20, 20}}, 5},
}

// geluStages is BERT's erf GELU, 0.5·x·(1+erf(x/√2)), as the one stage
// program Div|Erf|Add|Mul|Mul the fuse pass builds from it: input 0 is x
// and input 3 the same x read by the first Mul.
var geluStages = func() Attrs {
	a := FusedStageAttrs(nil, "Div", nil, 1, false)
	a = FusedStageAttrs(a, "Erf", nil, -1, false)
	a = FusedStageAttrs(a, "Add", nil, 2, false)
	a = FusedStageAttrs(a, "Mul", nil, 3, true)
	return FusedStageAttrs(a, "Mul", nil, 4, false)
}()

// bindCase binds c's op and draws its inputs.
func bindCase(tb testing.TB, c allocCase) (*Bound, []*tensor.Tensor) {
	k, err := Bind(c.op, c.attrs, nil)
	if err != nil {
		tb.Fatal(err)
	}
	r := tensor.NewRNG(5)
	in := make([]*tensor.Tensor, len(c.shapes))
	for i, s := range c.shapes {
		in[i] = r.RandTensor(s...)
	}
	return k, in
}

// runOn runs k on an arena and returns its outputs there, as the executor
// does once the values are dead.
func runOn(tb testing.TB, k *Bound, in []*tensor.Tensor, ar *tensor.Arena) {
	outs, err := k.Run(in, ar, false)
	if err != nil {
		tb.Fatal(err)
	}
	for _, o := range outs {
		tensor.ReleaseData(ar, o)
	}
}

// TestStridedOpsAllocs guards the heap allocations of one warm arena call
// of each strided op, each pooling op and BERT's row kernels: index walks,
// windows and rows must not allocate per element, per run or per worker.
func TestStridedOpsAllocs(t *testing.T) {
	for _, c := range allocCases {
		k, in := bindCase(t, c)
		ar := tensor.NewArena()
		runOn(t, k, in, ar)
		if got := testing.AllocsPerRun(50, func() { runOn(t, k, in, ar) }); got > c.max {
			t.Errorf("%s %v: %v allocs per call, want at most %v", c.op, c.shapes, got, c.max)
		}
	}
}

// benchCase times allocCases[i] on a warm arena.
func benchCase(b *testing.B, i int) {
	k, in := bindCase(b, allocCases[i])
	ar := tensor.NewArena()
	b.ReportAllocs()
	for b.Loop() {
		runOn(b, k, in, ar)
	}
}

// BenchmarkTransposeBERT is BERT's attention head split, [1,16,4,8] with
// perm [0,2,1,3].
func BenchmarkTransposeBERT(b *testing.B) { benchCase(b, 0) }

// BenchmarkAddRowBroadcast is BERT's bias add, [1,16,32]+[32].
func BenchmarkAddRowBroadcast(b *testing.B) { benchCase(b, 1) }

// BenchmarkAveragePoolInception is inception's 3x3 stride-1 padded
// AveragePool on [1,64,28,28].
func BenchmarkAveragePoolInception(b *testing.B) { benchCase(b, 7) }

// BenchmarkMaxPoolInception is inception's 3x3 stride-2 padded MaxPool on
// [1,64,56,56].
func BenchmarkMaxPoolInception(b *testing.B) { benchCase(b, 8) }

// BenchmarkMaxPoolSqueezenet is squeezenet's 3x3 stride-2 padded MaxPool
// on [1,16,112,112], the largest pool of a 224 px run.
func BenchmarkMaxPoolSqueezenet(b *testing.B) { benchCase(b, 14) }

// BenchmarkMaxPoolYolo is yolo_v5's 5x5 stride-1 padded SPPF MaxPool on
// [1,16,20,20], its shape at 640 px.
func BenchmarkMaxPoolYolo(b *testing.B) { benchCase(b, 15) }

// BenchmarkLayerNormBERT is BERT's LayerNormalization over [1,16,64], at
// one and two intra-op threads.
func BenchmarkLayerNormBERT(b *testing.B) {
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("intra%d", threads), func(b *testing.B) {
			tensor.WithIntraOpThreads(threads, func() { benchCase(b, 10) })
		})
	}
}

// BenchmarkSoftmaxBERT is BERT's attention softmax, [1,4,16,16] along the
// last axis.
func BenchmarkSoftmaxBERT(b *testing.B) { benchCase(b, 11) }

// BenchmarkGELUBERT is BERT's GELU on [1,16,64] as one fused sweep.
func BenchmarkGELUBERT(b *testing.B) { benchCase(b, 12) }

// BenchmarkMatMulViewsBERT is BERT's Q·Kᵀ attention scores read through
// the head-split views.
func BenchmarkMatMulViewsBERT(b *testing.B) { benchCase(b, 13) }
