package ops

import (
	"math"

	"repro/internal/tensor"
)

// batchNormK implements inference-mode batch norm over NCHW input:
// y = scale*(x-mean)/sqrt(var+eps) + bias with per-channel statistics.
// Inputs: X, scale, bias, mean, variance.
func batchNormK(in []*tensor.Tensor, attrs Attrs, alc tensor.Allocator) ([]*tensor.Tensor, error) {
	if err := need("BatchNormalization", in, 5, 5); err != nil {
		return nil, err
	}
	x, scale, bias, mean, variance := in[0], in[1], in[2], in[3], in[4]
	xs := x.Shape()
	if xs.Rank() < 2 {
		return nil, argErr("BatchNormalization", "want rank >= 2 input, got %v", xs)
	}
	c := xs[1]
	for i, p := range []*tensor.Tensor{scale, bias, mean, variance} {
		if p.Numel() != c {
			return nil, argErr("BatchNormalization", "param %d has %d elements, want %d", i+1, p.Numel(), c)
		}
	}
	eps := attrs.Float("epsilon", 1e-5)
	n := xs[0]
	plane := x.Numel() / max(n*c, 1)
	out := uninitLike(alc, x)
	xd, od := x.Data(), out.Data()
	sd, bd, md, vd := scale.Data(), bias.Data(), mean.Data(), variance.Data()

	// Precompute per-channel affine parameters: y = a*x + b. The scratch
	// rides the run allocator too and is returned before the kernel exits.
	as := tensor.Alloc(alc, c)
	bs := tensor.Alloc(alc, c)
	defer tensor.Free(alc, as)
	defer tensor.Free(alc, bs)
	for ch := 0; ch < c; ch++ {
		inv := float32(1 / math.Sqrt(float64(vd[ch])+eps))
		as[ch] = sd[ch] * inv
		bs[ch] = bd[ch] - md[ch]*sd[ch]*inv
	}
	tensor.ParallelFor(n*c, 4, func(idx int) {
		ch := idx % c
		a, b := as[ch], bs[ch]
		base := idx * plane
		for i := 0; i < plane; i++ {
			od[base+i] = a*xd[base+i] + b
		}
	})
	return []*tensor.Tensor{out}, nil
}

// layerNormK normalizes over the trailing axes starting at
// attribute "axis" (default -1): y = scale*(x-mu)/sqrt(var+eps) + bias.
// Inputs: X, scale, optional bias.
func layerNormK(in []*tensor.Tensor, attrs Attrs, alc tensor.Allocator) ([]*tensor.Tensor, error) {
	if err := need("LayerNormalization", in, 2, 3); err != nil {
		return nil, err
	}
	x, scale := in[0], in[1]
	var bias *tensor.Tensor
	if len(in) == 3 {
		bias = in[2]
	}
	xs := x.Shape()
	axis := attrs.Int("axis", -1)
	if axis < 0 {
		axis += xs.Rank()
	}
	if axis < 0 || axis >= xs.Rank() {
		return nil, argErr("LayerNormalization", "axis out of range for %v", xs)
	}
	inner := 1
	for d := axis; d < xs.Rank(); d++ {
		inner *= xs[d]
	}
	if scale.Numel() != inner {
		return nil, argErr("LayerNormalization", "scale has %d elements, want %d", scale.Numel(), inner)
	}
	if bias != nil && bias.Numel() != inner {
		return nil, argErr("LayerNormalization", "bias has %d elements, want %d", bias.Numel(), inner)
	}
	eps := attrs.Float("epsilon", 1e-5)
	outer := x.Numel() / max(inner, 1)
	out := uninitLike(alc, x)
	xd, od, sd := x.Data(), out.Data(), scale.Data()
	var bd []float32
	if bias != nil {
		bd = bias.Data()
	}
	// The grain is sized in elements, as softmaxK's is: BERT's [1,16,64]
	// rows are too small to be worth a second worker.
	tensor.ParallelFor(outer, max(4096/max(inner, 1), 1), func(o int) {
		base := o * inner
		var sum float64
		for i := 0; i < inner; i++ {
			sum += float64(xd[base+i])
		}
		mu := sum / float64(inner)
		var sq float64
		for i := 0; i < inner; i++ {
			d := float64(xd[base+i]) - mu
			sq += d * d
		}
		inv := 1 / math.Sqrt(sq/float64(inner)+eps)
		for i := 0; i < inner; i++ {
			v := float32((float64(xd[base+i]) - mu) * inv)
			v *= sd[i]
			if bd != nil {
				v += bd[i]
			}
			od[base+i] = v
		}
	})
	return []*tensor.Tensor{out}, nil
}

// reduceMeanK averages over the axes given by attribute "axes" (default:
// all), keeping reduced dimensions when "keepdims" != 0 (the default).
func reduceMeanK(in []*tensor.Tensor, attrs Attrs, alc tensor.Allocator) ([]*tensor.Tensor, error) {
	if err := need("ReduceMean", in, 1, 1); err != nil {
		return nil, err
	}
	x := in[0]
	xs := x.Shape()
	axes := attrs.Ints("axes", nil)
	keep := attrs.Int("keepdims", 1) != 0
	reduce := make([]bool, xs.Rank())
	if len(axes) == 0 {
		for i := range reduce {
			reduce[i] = true
		}
	} else {
		for _, a := range axes {
			if a < 0 {
				a += xs.Rank()
			}
			if a < 0 || a >= xs.Rank() {
				return nil, argErr("ReduceMean", "axis %v out of range for %v", axes, xs)
			}
			reduce[a] = true
		}
	}
	// kept is the output shape under keepdims.
	kept, count := xs.Clone(), 1
	for d, r := range reduce {
		if r {
			kept[d], count = 1, count*xs[d]
		}
	}
	outShape := kept
	if !keep {
		outShape = tensor.Shape{}
		for d, r := range reduce {
			if !r {
				outShape = append(outShape, xs[d])
			}
		}
	}
	out := tensor.ZerosIn(alc, outShape...)
	od, xd := out.Data(), x.Data()

	// Walk the input in order with the output's broadcast strides, 0 on
	// the reduced axes: each output cell sums its inputs in input order.
	sums := make([]float64, out.Numel())
	w := newWalk(xs, broadcastStrides(nil, kept, xs), nil)
	for w.seek(0, w.runs); w.left > 0; w.next() {
		for i, v := range xd[w.off[1]:][:w.n] {
			sums[w.off[0]+i*w.step[0]] += float64(v)
		}
	}
	if count == 0 {
		count = 1
	}
	for i := range od {
		od[i] = float32(sums[i] / float64(count))
	}
	return []*tensor.Tensor{out}, nil
}
