package ops

import (
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
		// output (tile tails in GEMM n), depthwise (direct-path fallback),
		// grouped with odd channel counts, and 1x1 with stride.
		{1, 5, 9, 7, 7, 3, 3, 3, 3, 1, 1},
		{2, 3, 19, 23, 17, 3, 3, 1, 1, 1, 1},
		{1, 8, 6, 6, 8, 3, 3, 1, 1, 1, 8}, // depthwise
		{1, 6, 10, 10, 9, 3, 3, 2, 2, 0, 3},
		{1, 4, 8, 8, 6, 1, 1, 2, 2, 0, 1}, // 1x1 strided: im2col, not alias path
		{1, 4, 8, 8, 6, 1, 1, 1, 1, 0, 1}, // 1x1 stride-1: plane-alias fast path
		{3, 2, 5, 5, 4, 4, 4, 1, 1, 2, 2}, // even kernel, batch > 1
	}
	for _, c := range cases {
		x := r.RandTensor(c.n, c.c, c.h, c.w)
		w := r.RandTensor(c.m, c.c/c.groups, c.kh, c.kw)
		b := r.RandTensor(c.m)
		attrs := Attrs{
			"strides": []int{c.sh, c.sw},
			"pads":    []int{c.pad, c.pad, c.pad, c.pad},
			"group":   c.groups,
		}
		got, err := call("Conv", []*tensor.Tensor{x, w, b}, attrs)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		want := refConv(x, w, b, c.sh, c.sw, c.pad, c.pad, c.pad, c.pad, c.groups)
		if !got[0].AllClose(want, 1e-4, 1e-5) {
			t.Errorf("%+v: conv mismatch, max diff %v", c, got[0].MaxAbsDiff(want))
		}
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
