package ops

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// refConv is a trivially-correct convolution used to validate the
// parallelized kernel.
func refConv(x, w, b *tensor.Tensor, sh, sw, pt, pl, pb, pr, groups int) *tensor.Tensor {
	xs, ws := x.Shape(), w.Shape()
	n, h, wd := xs[0], xs[2], xs[3]
	m, cg, kh, kw := ws[0], ws[1], ws[2], ws[3]
	oh := (h+pt+pb-kh)/sh + 1
	ow := (wd+pl+pr-kw)/sw + 1
	out := tensor.Zeros(n, m, oh, ow)
	mPerG := m / groups
	for bi := 0; bi < n; bi++ {
		for oc := 0; oc < m; oc++ {
			g := oc / mPerG
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float32
					if b != nil {
						acc = b.Data()[oc]
					}
					for ci := 0; ci < cg; ci++ {
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								iy := oy*sh - pt + ky
								ix := ox*sw - pl + kx
								if iy < 0 || iy >= h || ix < 0 || ix >= wd {
									continue
								}
								acc += x.At(bi, g*cg+ci, iy, ix) * w.At(oc, ci, ky, kx)
							}
						}
					}
					out.Set(acc, bi, oc, oy, ox)
				}
			}
		}
	}
	return out
}

func TestConvMatchesReference(t *testing.T) {
	r := tensor.NewRNG(11)
	cases := []struct {
		n, c, h, w, m, kh, kw, sh, sw, pad, groups int
	}{
		{1, 3, 8, 8, 4, 3, 3, 1, 1, 1, 1},
		{2, 4, 7, 9, 6, 3, 3, 2, 2, 1, 1},
		{1, 2, 6, 6, 2, 1, 1, 1, 1, 0, 1},
		{1, 6, 5, 5, 6, 3, 3, 1, 1, 1, 3},
		{1, 3, 12, 12, 8, 5, 5, 2, 2, 2, 1},
		{1, 3, 14, 14, 4, 7, 7, 2, 2, 3, 1},
		// im2col lowering edge shapes: odd spatial tails, stride 3, wide
		// output (tile tails in GEMM n), depthwise (windowed rows),
		// grouped with odd channel counts, and 1x1 with stride.
		{1, 5, 9, 7, 7, 3, 3, 3, 3, 1, 1},
		{2, 3, 19, 23, 17, 3, 3, 1, 1, 1, 1},
		{1, 8, 6, 6, 8, 3, 3, 1, 1, 1, 8}, // depthwise
		{1, 6, 10, 10, 9, 3, 3, 2, 2, 0, 3},
		{1, 4, 8, 8, 6, 1, 1, 2, 2, 0, 1}, // 1x1 strided: im2col, not alias path
		{1, 4, 8, 8, 6, 1, 1, 1, 1, 0, 1}, // 1x1 stride-1: plane-alias fast path
		{3, 2, 5, 5, 4, 4, 4, 1, 1, 2, 2}, // even kernel, batch > 1
		// Shapes that once ran the direct loop and now run as GEMMs.
		{1, 3, 6, 6, 1, 3, 3, 1, 1, 1, 1}, // one output channel
		{1, 3, 5, 5, 4, 1, 1, 1, 1, 0, 1}, // 1x1, cg = 3: K = 3
		{1, 3, 7, 7, 4, 1, 1, 2, 2, 1, 1}, // the same, strided and padded
		{1, 4, 6, 6, 8, 1, 1, 1, 1, 0, 4}, // depth multiplier 2 at 1x1
		{1, 6, 7, 7, 3, 3, 3, 1, 1, 1, 3}, // one output channel per group, cg = 2
		// More windowed rows.
		{2, 5, 9, 8, 5, 5, 5, 2, 2, 2, 5},  // depthwise 5x5, strided, batch > 1
		{1, 3, 4, 11, 3, 7, 7, 1, 3, 3, 3}, // depthwise, kernel taller than the input
	}
	for _, c := range cases {
		x := r.RandTensor(c.n, c.c, c.h, c.w)
		w := r.RandTensor(c.m, c.c/c.groups, c.kh, c.kw)
		b := r.RandTensor(c.m)
		want := refConv(x, w, b, c.sh, c.sw, c.pad, c.pad, c.pad, c.pad, c.groups)
		for _, relu := range []bool{false, true} {
			attrs := Attrs{
				"strides": []int{c.sh, c.sw},
				"pads":    []int{c.pad, c.pad, c.pad, c.pad},
				"group":   c.groups,
			}
			if relu { // the fused writeback epilogue
				for k, v := range EpilogueAttrs("Relu", nil) {
					attrs[k] = v
				}
				want = want.Clone()
				for i, v := range want.Data() {
					want.Data()[i] = max(v, 0)
				}
			}
			got, err := call("Conv", []*tensor.Tensor{x, w, b}, attrs)
			if err != nil {
				t.Fatalf("%+v: %v", c, err)
			}
			if !got[0].AllClose(want, 1e-4, 1e-5) {
				t.Errorf("%+v relu %v: conv mismatch, max diff %v", c, relu, got[0].MaxAbsDiff(want))
			}
		}
	}
}

// convCase is one Conv call, drawn by drawConvCase.
type convCase struct {
	x, w, b        *tensor.Tensor
	attrs          Attrs
	sh, sw, groups int
	pads           []int
}

// drawConvCase draws a depthwise Conv or a grouped one with 1 to 3 input
// and output channels per group, 1 to 3 groups, an input of up to 7×7
// with NaN, ±Inf and ±0 among its values, a kernel of 1 to 5 by 1 to 5,
// strides of 1 to 3, pads of 0 to the kernel, a bias and a fused
// Relu, LeakyRelu or Clip epilogue or none.
func drawConvCase(pick func(n int) int, rng *rand.Rand) convCase {
	groups, cg, mg := 1+pick(3), 1, 1
	if pick(2) == 1 {
		cg, mg = 1+pick(3), 1+pick(3)
	}
	n, h, w := 1+pick(2), pick(8), pick(8)
	kh, kw := 1+pick(5), 1+pick(5)
	c := convCase{
		x:      poolInput(rng, n, groups*cg, h, w),
		w:      tensor.NewRNG(uint64(rng.Int63())).RandTensor(groups*mg, cg, kh, kw),
		b:      tensor.NewRNG(uint64(rng.Int63())).RandTensor(groups * mg),
		sh:     1 + pick(3),
		sw:     1 + pick(3),
		groups: groups,
		pads:   []int{pick(kh + 1), pick(kw + 1), pick(kh + 1), pick(kw + 1)},
	}
	c.attrs = Attrs{"kernel_shape": []int{kh, kw}, "strides": []int{c.sh, c.sw}, "pads": c.pads, "group": groups}
	op := []string{"", "Relu", "LeakyRelu", "Clip"}[pick(4)]
	for k, v := range EpilogueAttrs(op, Attrs{"alpha": 0.25, "min": -0.5, "max": 0.5}) {
		c.attrs[k] = v
	}
	return c
}

// check runs c and compares it with refConv and the epilogue: a
// depthwise Conv bit for bit, since both add the bias and then the taps
// in row-major order; any other within the GEMM's rounding. An empty
// output must be refused.
func (c convCase) check(t *testing.T) {
	t.Helper()
	xs, ws := c.x.Shape(), c.w.Shape()
	got, err := call("Conv", []*tensor.Tensor{c.x, c.w, c.b}, c.attrs)
	if oh, ow := (xs[2]+c.pads[0]+c.pads[2]-ws[2])/c.sh+1, (xs[3]+c.pads[1]+c.pads[3]-ws[3])/c.sw+1; oh <= 0 || ow <= 0 {
		if err == nil {
			t.Fatalf("Conv %v on %v %v: empty output accepted", c.attrs, xs, ws)
		}
		return
	}
	if err != nil {
		t.Fatalf("Conv %v on %v %v: %v", c.attrs, xs, ws, err)
	}
	want := refConv(c.x, c.w, c.b, c.sh, c.sw, c.pads[0], c.pads[1], c.pads[2], c.pads[3], c.groups)
	epilogueOf(c.attrs).Apply(want.Data())
	depthwise := ws[1] == 1 && ws[0] == c.groups
	if depthwise && !bitsEqual(got[0].Data(), want.Data()) || !got[0].AllClose(want, 1e-4, 1e-5) {
		t.Fatalf("Conv %v on %v %v: got %v, want %v", c.attrs, xs, ws, got[0], want)
	}
}

// TestConvAsymmetricPads covers ONNX-style unequal begin/end padding
// through the im2col path.
func TestConvAsymmetricPads(t *testing.T) {
	r := tensor.NewRNG(13)
	x := r.RandTensor(1, 3, 9, 9)
	w := r.RandTensor(5, 3, 3, 3)
	attrs := Attrs{"pads": []int{2, 0, 1, 3}, "strides": []int{2, 1}}
	got, err := call("Conv", []*tensor.Tensor{x, w}, attrs)
	if err != nil {
		t.Fatal(err)
	}
	want := refConv(x, w, nil, 2, 1, 2, 0, 1, 3, 1)
	if !got[0].AllClose(want, 1e-4, 1e-5) {
		t.Errorf("asymmetric pads: max diff %v", got[0].MaxAbsDiff(want))
	}
}

func TestConvParallelEqualsSerial(t *testing.T) {
	r := tensor.NewRNG(5)
	x := r.RandTensor(1, 8, 16, 16)
	w := r.RandTensor(16, 8, 3, 3)
	attrs := Attrs{"pads": []int{1, 1, 1, 1}}
	var serial, parallel *tensor.Tensor
	tensor.WithIntraOpThreads(1, func() {
		out, err := call("Conv", []*tensor.Tensor{x, w}, attrs)
		if err != nil {
			t.Fatal(err)
		}
		serial = out[0]
	})
	tensor.WithIntraOpThreads(8, func() {
		out, err := call("Conv", []*tensor.Tensor{x, w}, attrs)
		if err != nil {
			t.Fatal(err)
		}
		parallel = out[0]
	})
	if !serial.Equal(parallel) {
		t.Error("intra-op parallel conv differs from serial result")
	}
}

func TestConvErrors(t *testing.T) {
	x := tensor.Zeros(1, 3, 8, 8)
	w := tensor.Zeros(4, 3, 3, 3)
	if _, err := call("Conv", []*tensor.Tensor{x}, nil); err == nil {
		t.Error("missing weight accepted")
	}
	if _, err := call("Conv", []*tensor.Tensor{tensor.Zeros(3, 8, 8), w}, nil); err == nil {
		t.Error("3-D input accepted")
	}
	bad := tensor.Zeros(4, 2, 3, 3)
	if _, err := call("Conv", []*tensor.Tensor{x, bad}, nil); err == nil {
		t.Error("channel mismatch accepted")
	}
	if _, err := call("Conv", []*tensor.Tensor{x, w, tensor.Zeros(5)}, nil); err == nil {
		t.Error("bad bias accepted")
	}
	if _, err := call("Conv", []*tensor.Tensor{x, tensor.Zeros(4, 3, 9, 9)}, nil); err == nil {
		t.Error("kernel larger than input accepted without padding")
	}
	if _, err := call("Conv", []*tensor.Tensor{x, tensor.Zeros(5, 3, 3, 3)}, Attrs{"group": 2}); err == nil {
		t.Error("non-divisible groups accepted")
	}
}

func TestMaxPoolBasic(t *testing.T) {
	x := tensor.New(tensor.Shape{1, 1, 4, 4}, []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	})
	out, err := call("MaxPool", []*tensor.Tensor{x}, Attrs{"kernel_shape": []int{2, 2}, "strides": []int{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{6, 8, 14, 16}
	for i, v := range want {
		if out[0].Data()[i] != v {
			t.Fatalf("MaxPool = %v, want %v", out[0].Data(), want)
		}
	}
}

func TestMaxPoolPadding(t *testing.T) {
	x := tensor.New(tensor.Shape{1, 1, 2, 2}, []float32{-1, -2, -3, -4})
	out, err := call("MaxPool", []*tensor.Tensor{x},
		Attrs{"kernel_shape": []int{3, 3}, "strides": []int{1, 1}, "pads": []int{1, 1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Padded cells must not contribute 0 to a max over negatives.
	if out[0].At(0, 0, 0, 0) != -1 {
		t.Errorf("padded MaxPool corner = %v, want -1", out[0].At(0, 0, 0, 0))
	}
}

func TestAveragePool(t *testing.T) {
	x := tensor.New(tensor.Shape{1, 1, 2, 2}, []float32{1, 2, 3, 4})
	out, err := call("AveragePool", []*tensor.Tensor{x}, Attrs{"kernel_shape": []int{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Data()[0] != 2.5 {
		t.Fatalf("AveragePool = %v, want 2.5", out[0].Data()[0])
	}
	// count_include_pad distinguishes the divisor.
	out2, err := call("AveragePool", []*tensor.Tensor{x},
		Attrs{"kernel_shape": []int{2, 2}, "pads": []int{1, 1, 0, 0}, "strides": []int{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if out2[0].Data()[0] != 1 { // only x[0,0]=1 inside window, divisor 1
		t.Fatalf("padded AveragePool = %v, want 1", out2[0].Data()[0])
	}
}

func TestGlobalAveragePool(t *testing.T) {
	x := tensor.New(tensor.Shape{1, 2, 2, 2}, []float32{1, 2, 3, 4, 10, 20, 30, 40})
	out, err := call("GlobalAveragePool", []*tensor.Tensor{x}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Shape().Equal(tensor.Shape{1, 2, 1, 1}) {
		t.Fatalf("shape = %v", out[0].Shape())
	}
	if out[0].Data()[0] != 2.5 || out[0].Data()[1] != 25 {
		t.Fatalf("values = %v", out[0].Data())
	}
}

func TestPoolErrors(t *testing.T) {
	x := tensor.Zeros(1, 1, 4, 4)
	if _, err := call("MaxPool", []*tensor.Tensor{x}, Attrs{}); err == nil {
		t.Error("missing kernel_shape accepted")
	}
	if _, err := call("MaxPool", []*tensor.Tensor{tensor.Zeros(4, 4)}, Attrs{"kernel_shape": []int{2, 2}}); err == nil {
		t.Error("2-D input accepted")
	}
	if _, err := call("GlobalAveragePool", []*tensor.Tensor{tensor.Zeros(4, 4)}, nil); err == nil {
		t.Error("GlobalAveragePool accepted 2-D input")
	}
}
