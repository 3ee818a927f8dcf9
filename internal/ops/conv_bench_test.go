package ops

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// Inception-style mid-network convolution: 192 -> 192 channels, 3x3,
// padded, on a 17x17 map — the Conv shape class serving spends most of its
// time in.
func inceptionConvCase(r *tensor.RNG) (x, w, bias *tensor.Tensor, attrs Attrs) {
	x = r.RandTensor(1, 192, 17, 17)
	w = r.RandTensor(192, 192, 3, 3)
	bias = r.RandTensor(192)
	return x, w, bias, Attrs{"pads": []int{1, 1, 1, 1}}
}

// BenchmarkConvIm2col is the PR's headline Conv benchmark: the im2col +
// packed-GEMM lowering with compile-time prepacked filters and arena
// scratch, exactly the serving-path configuration.
func BenchmarkConvIm2col(b *testing.B) {
	r := tensor.NewRNG(7)
	x, w, bias, attrs := inceptionConvCase(r)
	conv, _ := Bind("Conv", attrs, []*tensor.Tensor{nil, w, nil})
	if conv.Packed == nil {
		b.Fatal("inception conv not prepacked")
	}
	in := []*tensor.Tensor{x, w, bias}
	ar := tensor.NewArena()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := conv.Run(in, ar, false)
		if err != nil {
			b.Fatal(err)
		}
		tensor.ReleaseData(ar, out[0])
	}
}

// BenchmarkDepthwiseNasnet runs the depthwise halves of nasnet@224's
// first-stack separable convolutions, 3x3 and 5x5 at stride 1 over
// [1,8,112,112], where a one-lane nasnet run spends most of its time: the
// windowed-row engine, bound with a constant filter, on an arena.
func BenchmarkDepthwiseNasnet(b *testing.B) {
	for _, k := range []int{3, 5} {
		b.Run(fmt.Sprintf("%dx%d", k, k), func(b *testing.B) {
			r := tensor.NewRNG(7)
			x, w := r.RandTensor(1, 8, 112, 112), r.RandTensor(8, 1, k, k)
			attrs := Attrs{"kernel_shape": []int{k, k}, "pads": []int{k / 2, k / 2, k / 2, k / 2}, "group": 8}
			conv, _ := Bind("Conv", attrs, []*tensor.Tensor{nil, w})
			in := []*tensor.Tensor{x, w}
			ar := tensor.NewArena()
			for b.Loop() {
				out, err := conv.Run(in, ar, false)
				if err != nil {
					b.Fatal(err)
				}
				tensor.ReleaseData(ar, out[0])
			}
		})
	}
}
