package ops

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// refPool2d is the skip-out-of-bounds pooling loop: every tap of every
// window is tested against both bounds of the input, and max or average is
// chosen per output. It shares no window code with the pooling engine.
func refPool2d(op string, isMax bool, in []*tensor.Tensor, attrs Attrs) ([]*tensor.Tensor, error) {
	if err := need(op, in, 1, 1); err != nil {
		return nil, err
	}
	x := in[0]
	xs := x.Shape()
	if xs.Rank() != 4 {
		return nil, argErr(op, "want 4-D input, got %v", xs)
	}
	ks := attrs.Ints("kernel_shape", nil)
	if len(ks) != 2 {
		return nil, argErr(op, "kernel_shape must have 2 entries, got %v", ks)
	}
	kh, kw := ks[0], ks[1]
	sh, sw, pt, pl, pb, pr := 1, 1, 0, 0, 0, 0 // the cases give 2 strides and 4 pads or none
	if s := attrs.Ints("strides", nil); len(s) == 2 {
		sh, sw = s[0], s[1]
	}
	if p := attrs.Ints("pads", nil); len(p) == 4 {
		pt, pl, pb, pr = p[0], p[1], p[2], p[3]
	}
	n, c, h, w := xs[0], xs[1], xs[2], xs[3]
	oh := (h+pt+pb-kh)/sh + 1
	ow := (w+pl+pr-kw)/sw + 1
	if oh <= 0 || ow <= 0 {
		return nil, argErr(op, "non-positive output size %dx%d", oh, ow)
	}
	countIncludePad := attrs.Int("count_include_pad", 0) != 0

	out := tensor.Zeros(n, c, oh, ow)
	xd, od := x.Data(), out.Data()
	for idx := 0; idx < n*c; idx++ {
		plane := idx * h * w
		oBase := idx * oh * ow
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*sh - pt
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*sw - pl
				best := float32(-math.MaxFloat32)
				var sum float32
				cnt := 0
				for ky := 0; ky < kh; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < kw; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= w {
							continue
						}
						v := xd[plane+iy*w+ix]
						if v > best {
							best = v
						}
						sum += v
						cnt++
					}
				}
				if isMax {
					od[oBase+oy*ow+ox] = best
					continue
				}
				div := cnt
				if countIncludePad {
					div = kh * kw
				}
				if div == 0 {
					div = 1
				}
				od[oBase+oy*ow+ox] = sum / float32(div)
			}
		}
	}
	return []*tensor.Tensor{out}, nil
}

// refGlobalAvgPool averages each channel plane to 1x1 with one flat sum.
func refGlobalAvgPool(in []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if err := need("GlobalAveragePool", in, 1, 1); err != nil {
		return nil, err
	}
	x := in[0]
	xs := x.Shape()
	if xs.Rank() != 4 {
		return nil, argErr("GlobalAveragePool", "want 4-D input, got %v", xs)
	}
	n, c, h, w := xs[0], xs[1], xs[2], xs[3]
	plane := h * w
	if plane == 0 {
		return nil, argErr("GlobalAveragePool", "empty spatial plane in %v", xs)
	}
	out := tensor.Zeros(n, c, 1, 1)
	xd, od := x.Data(), out.Data()
	for idx := 0; idx < n*c; idx++ {
		var sum float32
		for _, v := range xd[idx*plane : (idx+1)*plane] {
			sum += v
		}
		od[idx] = sum / float32(plane)
	}
	return []*tensor.Tensor{out}, nil
}

// refPool runs op's reference.
func refPool(op string, in []*tensor.Tensor, attrs Attrs) ([]*tensor.Tensor, error) {
	if op == "GlobalAveragePool" {
		return refGlobalAvgPool(in)
	}
	return refPool2d(op, op == "MaxPool", in, attrs)
}

// poolInput draws an n×c×h×w tensor in which about one value in four is
// NaN, ±Inf, ±0 or a repeat of its left neighbour, so max meets ties,
// signed zeros and NaN.
func poolInput(pick *rand.Rand, n, c, h, w int) *tensor.Tensor {
	x := tensor.NewRNG(uint64(pick.Int63())).RandTensor(n, c, h, w)
	special := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1))}
	d := x.Data()
	for i := range d {
		switch p := pick.Intn(24); {
		case p < len(special):
			d[i] = special[p]
		case p == len(special) && i > 0:
			d[i] = d[i-1]
		}
	}
	return x
}

// poolAttrs draws a window of 1 to 5 by 1 to 5 taps, explicit strides of 1
// to 3, pads from 0 up to the kernel on each side (so whole windows can lie
// in the padding) and count_include_pad 0 or 1.
func poolAttrs(pick *rand.Rand) Attrs {
	kh, kw := 1+pick.Intn(5), 1+pick.Intn(5)
	return Attrs{
		"kernel_shape":      []int{kh, kw},
		"strides":           []int{1 + pick.Intn(3), 1 + pick.Intn(3)},
		"pads":              []int{pick.Intn(kh + 1), pick.Intn(kw + 1), pick.Intn(kh + 1), pick.Intn(kw + 1)},
		"count_include_pad": pick.Intn(2),
	}
}

// poolCase is one pooling call.
type poolCase struct {
	op    string
	attrs Attrs
	in    []*tensor.Tensor
}

// checkPool runs c's bound op and its reference and fails unless both
// return the same error text, or neither errs and the outputs match bit
// for bit. a, when non-nil, is an arena; c's outputs go back to it filled
// with NaN.
func checkPool(t *testing.T, c poolCase, a *tensor.Arena) {
	t.Helper()
	where := fmt.Sprintf("%s %v on %v", c.op, c.attrs, shapesOf(c.in))
	want, wantErr := refPool(c.op, c.in, c.attrs)
	k, err := Bind(c.op, c.attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var alc tensor.Allocator
	if a != nil {
		alc = a
	}
	got, err := k.Run(c.in, alc, false)
	switch {
	case wantErr != nil || err != nil:
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, want %v", where, err, wantErr)
		}
		return
	case !got[0].Shape().Equal(want[0].Shape()):
		t.Fatalf("%s: shape %v, want %v", where, got[0].Shape(), want[0].Shape())
	case !bitsEqual(got[0].Data(), want[0].Data()):
		t.Fatalf("%s: got %v, want %v", where, got[0].Data(), want[0].Data())
	}
	if a != nil {
		dirty(a, got)
	}
}

// shapesOf lists the shapes of in, nil entries as nil.
func shapesOf(in []*tensor.Tensor) []tensor.Shape {
	s := make([]tensor.Shape, len(in))
	for i, t := range in {
		if t != nil {
			s[i] = t.Shape()
		}
	}
	return s
}

// TestPoolMatchesReference runs MaxPool, AveragePool and GlobalAveragePool
// on random windows, strides, pads and inputs (empty planes, kernels
// larger than the input and windows wholly in the padding included)
// against the skip-out-of-bounds references, at one and two intra-op
// workers, on the heap and on an arena of recycled NaN-filled buffers.
// Outputs must match bit for bit, and errors word for word.
func TestPoolMatchesReference(t *testing.T) {
	pick := rand.New(rand.NewSource(32))
	x := tensor.Zeros(1, 1, 4, 4)
	cases := []poolCase{
		{"MaxPool", nil, []*tensor.Tensor{x}},
		{"AveragePool", Attrs{"kernel_shape": []int{2}}, []*tensor.Tensor{x}},
		{"MaxPool", Attrs{"kernel_shape": []int{2, 2}}, []*tensor.Tensor{tensor.Zeros(4, 4)}},
		{"AveragePool", Attrs{"kernel_shape": []int{2, 2}}, []*tensor.Tensor{x, x}},
		{"MaxPool", Attrs{"kernel_shape": []int{2, 2}}, []*tensor.Tensor{nil}},
		{"MaxPool", Attrs{"kernel_shape": []int{5, 2}, "strides": []int{1, 1}}, []*tensor.Tensor{x}},
		{"GlobalAveragePool", nil, []*tensor.Tensor{tensor.Zeros(1, 4, 4)}},
		{"GlobalAveragePool", nil, nil},
	}
	for range 600 {
		n, c, h, w := 1+pick.Intn(2), 1+pick.Intn(5), pick.Intn(10), pick.Intn(10)
		in := []*tensor.Tensor{poolInput(pick, n, c, h, w)}
		for _, op := range []string{"MaxPool", "AveragePool"} {
			cases = append(cases, poolCase{op, poolAttrs(pick), in})
		}
		cases = append(cases, poolCase{"GlobalAveragePool", nil, in})
	}
	ar := tensor.NewArena()
	for _, c := range cases {
		for _, threads := range []int{1, 2} {
			tensor.WithIntraOpThreads(threads, func() {
				checkPool(t, c, nil)
				checkPool(t, c, ar)
			})
		}
	}
	t.Logf("%d cases", len(cases))
}

// TestPoolFollowsONNXDefaults: strides default to 1, as in ONNX, and the
// attributes that would change the output's shape are refused unless they
// hold their defaults, with an error that names the attribute.
func TestPoolFollowsONNXDefaults(t *testing.T) {
	x := tensor.New(tensor.Shape{1, 1, 4, 4}, []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	})
	window := Attrs{"kernel_shape": []int{2, 2}}
	out, err := call("MaxPool", []*tensor.Tensor{x}, window)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{6, 7, 8, 10, 11, 12, 14, 15, 16}
	if !out[0].Shape().Equal(tensor.Shape{1, 1, 3, 3}) || !bitsEqual(out[0].Data(), want) {
		t.Fatalf("MaxPool without strides = %v, want [1 1 3 3] %v", out[0], want)
	}
	for _, op := range []string{"MaxPool", "AveragePool"} {
		for _, c := range []struct {
			name  string
			value any
			ok    bool
		}{
			{"ceil_mode", 0, true},
			{"ceil_mode", 1, false},
			{"dilations", []int{1, 1}, true},
			{"dilations", []int{2, 1}, false},
			{"auto_pad", "NOTSET", true},
			{"auto_pad", "SAME_UPPER", false},
			{"auto_pad", "VALID", false},
			{"strides", []int{1, 1}, true},
			{"strides", []int{0, 1}, false},
			{"strides", []int{2, -1}, false},
		} {
			attrs := window.Clone()
			attrs[c.name] = c.value
			_, err := call(op, []*tensor.Tensor{x}, attrs)
			switch {
			case c.ok && err != nil:
				t.Errorf("%s %s=%v: %v", op, c.name, c.value, err)
			case !c.ok && (err == nil || !strings.Contains(err.Error(), c.name)):
				t.Errorf("%s %s=%v: error %v, want one naming %s", op, c.name, c.value, err, c.name)
			}
		}
	}
}

// TestConvRefusesWhatItCannotCompute: Conv decodes its window as the pools
// do, so dilations, auto_pad, non-positive strides and a kernel_shape the
// weight disagrees with fail when the node runs, with an error that names
// the attribute, instead of returning wrong numbers.
func TestConvRefusesWhatItCannotCompute(t *testing.T) {
	x, w := tensor.NewRNG(39).RandTensor(1, 2, 5, 5), tensor.NewRNG(40).RandTensor(4, 2, 3, 3)
	for _, c := range []struct {
		name  string
		value any
		ok    bool
	}{
		{"dilations", []int{1, 1}, true},
		{"dilations", []int{2, 1}, false},
		{"auto_pad", "NOTSET", true},
		{"auto_pad", "SAME_UPPER", false},
		{"auto_pad", "VALID", false},
		{"strides", []int{1, 1}, true},
		{"strides", []int{0, 1}, false},
		{"strides", []int{2, -1}, false},
		{"kernel_shape", []int{3, 3}, true},
		{"kernel_shape", []int{3, 2}, false},
		{"kernel_shape", []int{3}, false},
	} {
		attrs := Attrs{c.name: c.value}
		_, err := call("Conv", []*tensor.Tensor{x, w}, attrs)
		switch {
		case c.ok && err != nil:
			t.Errorf("Conv %s=%v: %v", c.name, c.value, err)
		case !c.ok && (err == nil || !strings.Contains(err.Error(), c.name)):
			t.Errorf("Conv %s=%v: error %v, want one naming %s", c.name, c.value, err, c.name)
		}
	}
}
