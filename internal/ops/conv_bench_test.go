package ops

import (
	"testing"

	"repro/internal/kernels"
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

// BenchmarkConvDirect is the pre-PR kernel: the direct 7-loop nest with
// per-element bounds branches, on the same shape.
func BenchmarkConvDirect(b *testing.B) {
	r := tensor.NewRNG(7)
	x, w, bias, attrs := inceptionConvCase(r)
	sh, sw := strides2(attrs.Ints("strides", nil))
	pt, pl, pb2, pr := pads4(attrs.Ints("pads", nil))
	oh := convOutDim(x.Shape()[2], w.Shape()[2], sh, pt, pb2)
	ow := convOutDim(x.Shape()[3], w.Shape()[3], sw, pl, pr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := convDirect(x, w, bias, nil, 1, sh, sw, pt, pl, oh, ow, kernels.Epilogue{}); err != nil {
			b.Fatal(err)
		}
	}
}
