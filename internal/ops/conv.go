package ops

import (
	"slices"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// convGEMMWorthy decides the im2col+GEMM lowering. It must depend only on
// weight-derived dims so the compile-time prepack pass (which cannot see
// activation sizes) makes the same call as the kernel.
func convGEMMWorthy(mPerG, cg, kh, kw int) bool {
	return mPerG >= 2 && cg*kh*kw >= 4
}

// Conv implements 2-D convolution over NCHW activations with OIHW weights,
// optional bias, symmetric or ONNX-style padding and grouped channels.
//
// GEMM-worthy shapes are lowered to im2col + the blocked GEMM core
// (internal/kernels): per (batch, group) the input plane group is expanded
// into a K×N patch matrix in scratch drawn from the run's allocator (the
// arena during serving, so steady state allocates nothing) and multiplied
// by the filter matrix — prepacked at compile time when the weights are
// graph constants. Degenerate shapes (depthwise and other tiny per-group
// matrices) keep the direct loop, which also serves as the reference
// implementation in tests. pp is non-nil (one PackedA per group) when Bind
// packed constant filters.
func convK(in []*tensor.Tensor, attrs Attrs, a tensor.Allocator, pp *Prepacked) ([]*tensor.Tensor, error) {
	if err := need("Conv", in, 2, 3); err != nil {
		return nil, err
	}
	x, w := in[0], in[1]
	var bias *tensor.Tensor
	if len(in) == 3 {
		bias = in[2]
	}
	xs, ws := x.Shape(), w.Shape()
	if xs.Rank() != 4 || ws.Rank() != 4 {
		return nil, argErr("Conv", "want 4-D input and weight, got %v and %v", xs, ws)
	}
	n, c, h, wd := xs[0], xs[1], xs[2], xs[3]
	m, cg, kh, kw := ws[0], ws[1], ws[2], ws[3]
	groups := max(attrs.Int("group", 1), 1)
	if c != cg*groups {
		return nil, argErr("Conv", "channel mismatch: input C=%d, weight C/g=%d, groups=%d", c, cg, groups)
	}
	if m%groups != 0 {
		return nil, argErr("Conv", "output channels %d not divisible by groups %d", m, groups)
	}
	if bias != nil && bias.Numel() != m {
		return nil, argErr("Conv", "bias has %d elements, want %d", bias.Numel(), m)
	}
	sh, sw := strides2(attrs.Ints("strides", nil))
	pt, pl, pb, pr := pads4(attrs.Ints("pads", nil))
	oh := convOutDim(h, kh, sh, pt, pb)
	ow := convOutDim(wd, kw, sw, pl, pr)
	if oh <= 0 || ow <= 0 {
		return nil, argErr("Conv", "non-positive output size %dx%d from input %v kernel %dx%d", oh, ow, xs, kh, kw)
	}
	// Fused writeback activation (passes.AttachEpilogues): applied inside
	// the GEMM writeback while each C tile is cache-hot, so Conv→BN→Relu
	// is exactly one kernel invocation after BN folding.
	epi := epilogueOf(attrs)
	mPerG := m / groups
	if !convGEMMWorthy(mPerG, cg, kh, kw) {
		return convDirect(x, w, bias, a, groups, sh, sw, pt, pl, oh, ow, epi)
	}

	// The blocked kernel accumulates (C +=), so the output must be seeded:
	// with the bias when there is one — riding along with no extra pass —
	// which also means every element is written here and the zero fill of
	// a fresh/recycled buffer can be skipped entirely.
	var out *tensor.Tensor
	if bias != nil {
		out = tensor.New(tensor.Shape{n, m, oh, ow}, tensor.AllocUninit(a, n*m*oh*ow))
	} else {
		out = tensor.ZerosIn(a, n, m, oh, ow)
	}
	xd, wdata, od := x.Data(), w.Data(), out.Data()
	colK := cg * kh * kw
	colN := oh * ow

	if bias != nil {
		bd := bias.Data()
		for idx := 0; idx < n*m; idx++ {
			fill(od[idx*colN:idx*colN+colN], bd[idx%m])
		}
	}

	// A 1x1 stride-1 unpadded kernel needs no patch expansion: the plane
	// group itself is already the cg x (h*w) matrix.
	needCol := !(kh == 1 && kw == 1 && sh == 1 && sw == 1 && pt == 0 && pl == 0 && pb == 0 && pr == 0)
	var col []float32
	if needCol {
		col = tensor.AllocUninit(a, colK*colN)
	}
	for b := 0; b < n; b++ {
		for g := 0; g < groups; g++ {
			colMat := xd[(b*c+g*cg)*h*wd : (b*c+(g+1)*cg)*h*wd]
			if needCol {
				kernels.Im2col(col, colMat, cg, h, wd, kh, kw, sh, sw, pt, pl, oh, ow)
				colMat = col
			}
			cSlice := od[(b*m+g*mPerG)*colN : (b*m+(g+1)*mPerG)*colN]
			if pp != nil {
				kernels.GemmPackedAEpi(pp.A[g], colN, colMat, colN, false, cSlice, colN, a, epi)
			} else {
				wg := wdata[g*mPerG*colK : (g+1)*mPerG*colK]
				kernels.GemmEpi(1, mPerG, colN, colK, wg, colK, false, colMat, colN, false, cSlice, colN, a, epi)
			}
		}
	}
	tensor.Free(a, col)
	return []*tensor.Tensor{out}, nil
}

// convDirect is the retained direct 7-loop convolution: the reference the
// equivalence tests check the GEMM lowering against, and the execution
// path for shapes where a per-group GEMM would degenerate (depthwise).
// Work is parallelized across (batch, outChannel) pairs, the same axis
// PyTorch's OpenMP loops use.
func convDirect(x, w, bias *tensor.Tensor, a tensor.Allocator, groups, sh, sw, pt, pl, oh, ow int, epi kernels.Epilogue) ([]*tensor.Tensor, error) {
	xs, ws := x.Shape(), w.Shape()
	n, c, h, wd := xs[0], xs[1], xs[2], xs[3]
	m, cg, kh, kw := ws[0], ws[1], ws[2], ws[3]
	out := tensor.ZerosIn(a, n, m, oh, ow)
	xd, wdata, od := x.Data(), w.Data(), out.Data()
	mPerG := m / groups

	tensor.ParallelFor(n*m, 1, func(idx int) {
		b := idx / m
		oc := idx % m
		g := oc / mPerG
		cLo := g * cg
		var biasV float32
		if bias != nil {
			biasV = bias.Data()[oc]
		}
		wBase := oc * cg * kh * kw
		oBase := (b*m + oc) * oh * ow
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*sh - pt
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*sw - pl
				acc := biasV
				for ci := 0; ci < cg; ci++ {
					xBase := (b*c + cLo + ci) * h * wd
					wc := wBase + ci*kh*kw
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue
						}
						rowX := xBase + iy*wd
						rowW := wc + ky*kw
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= wd {
								continue
							}
							acc += xd[rowX+ix] * wdata[rowW+kx]
						}
					}
				}
				od[oBase+oy*ow+ox] = acc
			}
		}
		// One cache-hot sweep per output plane; a no-op when unfused, so
		// the accumulator store above stays free of per-element dispatch.
		epi.Apply(od[oBase : oBase+oh*ow])
	})
	return []*tensor.Tensor{out}, nil
}

// pool is one MaxPool, AveragePool or GlobalAveragePool node, decoded once
// by bindPool, so a run reads no attributes. A run clamps each output
// row's windows to the input rows and hands the row to kernels.PoolRow;
// no tap is bounds-tested.
type pool struct {
	op             string
	avg            bool // AveragePool or GlobalAveragePool, else MaxPool
	global         bool // the window is the whole plane
	kh, kw, sh, sw int
	pt, pl, pb, pr int
	area           int   // the divisor under count_include_pad, else 0
	err            error // an attribute error, reported when the node runs
}

// bindPool binds a pooling op; GlobalAveragePool is an AveragePool whose
// window is the whole plane. As in ONNX, strides default to 1 and must be
// positive. ceil_mode, dilations and auto_pad would change the output, so
// only their defaults are accepted.
func bindPool(op string) binder {
	return func(attrs Attrs, _ []*tensor.Tensor) *Bound {
		p := &pool{op: op, avg: op != "MaxPool", global: op == "GlobalAveragePool", sh: 1, sw: 1}
		ks := attrs.Ints("kernel_shape", nil)
		switch {
		case p.global:
		case len(ks) != 2:
			p.err = argErr(op, "kernel_shape must have 2 entries, got %v", ks)
		case attrs.Int("ceil_mode", 0) != 0:
			p.err = argErr(op, "ceil_mode %v is not supported", attrs["ceil_mode"])
		case slices.ContainsFunc(attrs.Ints("dilations", nil), func(d int) bool { return d != 1 }):
			p.err = argErr(op, "dilations %v are not supported", attrs["dilations"])
		case attrs.Str("auto_pad", "NOTSET") != "NOTSET":
			p.err = argErr(op, "auto_pad %v is not supported", attrs["auto_pad"])
		default:
			p.kh, p.kw = ks[0], ks[1]
			p.sh, p.sw = strides2(attrs.Ints("strides", nil))
			p.pt, p.pl, p.pb, p.pr = pads4(attrs.Ints("pads", nil))
			if p.sh < 1 || p.sw < 1 {
				p.err = argErr(op, "strides %v must be positive", attrs["strides"])
			}
			if attrs.Int("count_include_pad", 0) != 0 {
				p.area = p.kh * p.kw
			}
		}
		return &Bound{run: p.run}
	}
}

func (p *pool) run(in []*tensor.Tensor, a tensor.Allocator, _ *Prepacked, _ bool) ([]*tensor.Tensor, error) {
	if err := need(p.op, in, 1, 1); err != nil {
		return nil, err
	}
	xs := in[0].Shape()
	switch {
	case xs.Rank() != 4:
		return nil, argErr(p.op, "want 4-D input, got %v", xs)
	case p.err != nil:
		return nil, p.err
	case p.global && xs[2]*xs[3] == 0:
		return nil, argErr(p.op, "empty spatial plane in %v", xs)
	}
	n, c, h, w := xs[0], xs[1], xs[2], xs[3]
	kh, kw := p.kh, p.kw
	if p.global { // the plane as one row: one window, summed in memory order
		h, w, kh, kw = 1, h*w, 1, h*w
	}
	oh, ow := convOutDim(h, kh, p.sh, p.pt, p.pb), convOutDim(w, kw, p.sw, p.pl, p.pr)
	if oh <= 0 || ow <= 0 {
		return nil, argErr(p.op, "non-positive output size %dx%d", oh, ow)
	}
	out := tensor.New(tensor.Shape{n, c, oh, ow}, tensor.AllocUninit(a, n*c*oh*ow)) // every element is written
	xd, od := in[0].Data(), out.Data()
	tensor.ParallelRange(n*c, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x, o := xd[i*h*w:][:h*w], od[i*oh*ow:][:oh*ow]
			for oy := 0; oy < oh; oy++ {
				y0, y1 := clamp(oy*p.sh-p.pt, kh, h)
				kernels.PoolRow(o[oy*ow:][:ow], x[y0*w:y1*w], w, kw, p.sw, p.pl, p.area, p.avg)
			}
		}
	})
	return []*tensor.Tensor{out}, nil
}

// clamp returns the part [lo, hi) of the window [at, at+k) inside [0, n).
func clamp(at, k, n int) (lo, hi int) {
	lo = min(max(at, 0), n)
	return lo, max(min(at+k, n), lo)
}

// fill sets every element of s to v by doubling copies, so the work runs
// in the runtime's vectorized memmove rather than a scalar store loop
// whose speed depended on where the linker placed it.
func fill(s []float32, v float32) {
	if len(s) == 0 {
		return
	}
	s[0] = v
	for done := 1; done < len(s); done *= 2 {
		copy(s[done:], s[:done])
	}
}
