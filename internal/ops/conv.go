package ops

import (
	"slices"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// window is the geometry of a windowed op (Conv, MaxPool, AveragePool),
// decoded once at bind time: the kernel, the strides and the pads as
// [top, left, bottom, right].
type window struct {
	kh, kw, sh, sw int
	pt, pl, pb, pr int
}

// decodeWindow decodes op's window attributes. As in ONNX, strides default
// to 1 and must be positive. dilations and auto_pad would change the
// output, so only their defaults are accepted, and for the pools ceil_mode
// too. The pools need a kernel_shape; a Conv's may be absent (kh = kw = 0),
// and its weight sets the kernel.
func decodeWindow(op string, attrs Attrs) (window, error) {
	win := window{sh: 1, sw: 1}
	ks := attrs.Ints("kernel_shape", nil)
	switch {
	case len(ks) != 2 && (ks != nil || op != "Conv"):
		return win, argErr(op, "kernel_shape must have 2 entries, got %v", ks)
	case op != "Conv" && attrs.Int("ceil_mode", 0) != 0:
		return win, argErr(op, "ceil_mode %v is not supported", attrs["ceil_mode"])
	case slices.ContainsFunc(attrs.Ints("dilations", nil), func(d int) bool { return d != 1 }):
		return win, argErr(op, "dilations %v are not supported", attrs["dilations"])
	case attrs.Str("auto_pad", "NOTSET") != "NOTSET":
		return win, argErr(op, "auto_pad %v is not supported", attrs["auto_pad"])
	}
	if ks != nil {
		win.kh, win.kw = ks[0], ks[1]
	}
	switch s := attrs.Ints("strides", nil); len(s) {
	case 2:
		win.sh, win.sw = s[0], s[1]
	case 1:
		win.sh, win.sw = s[0], s[0]
	}
	switch p := attrs.Ints("pads", nil); len(p) { // ONNX order: begins, then ends
	case 4:
		win.pt, win.pl, win.pb, win.pr = p[0], p[1], p[2], p[3]
	case 2:
		win.pt, win.pl, win.pb, win.pr = p[0], p[1], p[0], p[1]
	case 1:
		win.pt, win.pl, win.pb, win.pr = p[0], p[0], p[0], p[0]
	}
	if win.sh < 1 || win.sw < 1 {
		return win, argErr(op, "strides %v must be positive", attrs["strides"])
	}
	return win, nil
}

// out returns the output extents of the window over an h×w plane.
func (win window) out(h, w int) (oh, ow int) {
	return (h+win.pt+win.pb-win.kh)/win.sh + 1, (w+win.pl+win.pr-win.kw)/win.sw + 1
}

// clampRows returns output row oy's window rows clamped to the h input
// rows, [y0, y1), and ky, the kernel row that y0 falls on.
func (win window) clampRows(oy, h int) (y0, y1, ky int) {
	at := oy*win.sh - win.pt
	y0 = min(max(at, 0), h)
	return y0, max(min(at+win.kh, h), y0), min(max(y0-at, 0), win.kh)
}

// conv is one Conv node, decoded once by bindConv, so a run reads no
// attributes.
type conv struct {
	win    window
	groups int
	epi    kernels.Epilogue // the fused writeback activation (passes.AttachEpilogues)
	err    error            // an attribute error, reported when the node runs
}

// bindConv binds a Conv node and packs its filter when it is a graph
// constant and the node takes the GEMM lowering.
func bindConv(attrs Attrs, consts []*tensor.Tensor) *Bound {
	cv := newConv(attrs)
	return &Bound{Packed: cv.pack(consts), run: cv.run}
}

// newConv decodes a Conv node's attributes.
func newConv(attrs Attrs) *conv {
	cv := &conv{groups: max(attrs.Int("group", 1), 1), epi: epilogueOf(attrs)}
	cv.win, cv.err = decodeWindow("Conv", attrs)
	return cv
}

// rowwise reports whether a Conv with weight shape ws runs the windowed
// rows: one input and one output channel per group, a depthwise Conv.
// Every other Conv takes the GEMM lowering. It depends only on the weight,
// so packing at bind time, the kernel and ScratchElems agree.
func (cv *conv) rowwise(ws tensor.Shape) bool {
	return ws[1] == 1 && ws[0] == cv.groups
}

// geometry checks x and w against the node and returns the window with
// the weight's kernel and the output extents.
func (cv *conv) geometry(xs, ws tensor.Shape) (win window, oh, ow int, err error) {
	if xs.Rank() != 4 || ws.Rank() != 4 {
		return win, 0, 0, argErr("Conv", "want 4-D input and weight, got %v and %v", xs, ws)
	}
	if cv.err != nil {
		return win, 0, 0, cv.err
	}
	c, m, cg, kh, kw := xs[1], ws[0], ws[1], ws[2], ws[3]
	switch win = cv.win; {
	case (win.kh != 0 || win.kw != 0) && (win.kh != kh || win.kw != kw):
		return win, 0, 0, argErr("Conv", "kernel_shape [%d %d] disagrees with weight %v", win.kh, win.kw, ws)
	case c != cg*cv.groups:
		return win, 0, 0, argErr("Conv", "channel mismatch: input C=%d, weight C/g=%d, groups=%d", c, cg, cv.groups)
	case m%cv.groups != 0:
		return win, 0, 0, argErr("Conv", "output channels %d not divisible by groups %d", m, cv.groups)
	}
	win.kh, win.kw = kh, kw
	if oh, ow = win.out(xs[2], xs[3]); oh <= 0 || ow <= 0 {
		return win, 0, 0, argErr("Conv", "non-positive output size %dx%d from input %v kernel %dx%d", oh, ow, xs, kh, kw)
	}
	return win, oh, ow, nil
}

// pack packs the constant filter among the node's constant inputs into
// one GEMM left operand per group; nil when the filter is not a constant,
// the node runs the windowed rows or the filter does not fit it.
func (cv *conv) pack(consts []*tensor.Tensor) *Prepacked {
	if len(consts) < 2 || consts[1] == nil {
		return nil
	}
	w, ws := consts[1], consts[1].Shape()
	if ws.Rank() != 4 || ws[0] <= 0 || ws[0]%cv.groups != 0 || cv.rowwise(ws) {
		return nil
	}
	mPerG, colK := ws[0]/cv.groups, ws[1]*ws[2]*ws[3]
	pa := make([]*kernels.PackedA, cv.groups)
	for g := range pa {
		pa[g] = kernels.PrepackA(w.Data()[g*mPerG*colK:], mPerG, colK, colK, false)
	}
	return &Prepacked{A: pa}
}

// scratch is the transient float32 elements a run on these shapes draws
// from its allocator: the im2col patch matrix, the patch packing inside
// the GEMM and the filter packing when it was not prepacked.
func (cv *conv) scratch(xs, ws tensor.Shape) int {
	win, oh, ow, err := cv.geometry(xs, ws)
	if err != nil || cv.rowwise(ws) {
		return 0
	}
	colK, colN := ws[1]*win.kh*win.kw, oh*ow
	return colK*colN + kernels.PackedBSize(colK, colN) + kernels.PackedASize(ws[0]/cv.groups, colK)
}

// run implements 2-D convolution over NCHW activations with OIHW weights,
// optional bias, ONNX-style padding and grouped channels, with two
// engines. A depthwise Conv reduces each output row with
// kernels.DepthwiseRow, its window rows clamped as the pools' are. Every
// other Conv is lowered to im2col + the blocked GEMM core
// (internal/kernels): per (batch, group) the input plane group is expanded
// into a K×N patch matrix in scratch drawn from the run's allocator (the
// arena during serving, so steady state allocates nothing) and multiplied
// by the group's filter matrix, packed at bind time when pp is non-nil.
// Either way the fused activation is applied while the output is
// cache-hot, so Conv→BN→Relu is one kernel invocation after BN folding.
func (cv *conv) run(in []*tensor.Tensor, a tensor.Allocator, pp *Prepacked, _ bool) ([]*tensor.Tensor, error) {
	if err := need("Conv", in, 2, 3); err != nil {
		return nil, err
	}
	x, w := in[0], in[1]
	xs, ws := x.Shape(), w.Shape()
	win, oh, ow, err := cv.geometry(xs, ws)
	if err != nil {
		return nil, err
	}
	n, c, h, wd := xs[0], xs[1], xs[2], xs[3]
	m, cg, kh, kw := ws[0], ws[1], ws[2], ws[3]
	var bd []float32 // the bias, if any
	if len(in) == 3 {
		if bd = in[2].Data(); len(bd) != m {
			return nil, argErr("Conv", "bias has %d elements, want %d", len(bd), m)
		}
	}
	out := tensor.New(tensor.Shape{n, m, oh, ow}, tensor.AllocUninit(a, n*m*oh*ow)) // every element is written
	xd, wdata, od := x.Data(), w.Data(), out.Data()

	if cv.rowwise(ws) {
		tensor.ParallelRange(n*c, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ { // plane i is channel i % c
				x, o, wc := xd[i*h*wd:][:h*wd], od[i*oh*ow:][:oh*ow], wdata[i%c*kh*kw:][:kh*kw]
				var b float32
				if bd != nil {
					b = bd[i%c]
				}
				for oy := 0; oy < oh; oy++ {
					y0, y1, ky := win.clampRows(oy, h)
					kernels.DepthwiseRow(o[oy*ow:][:ow], x[y0*wd:y1*wd], wc[ky*kw:], wd, kw, win.sw, win.pl, b)
				}
				cv.epi.Apply(o) // once per plane, while it is cache-hot
			}
		})
		return []*tensor.Tensor{out}, nil
	}

	// The blocked kernel accumulates (C +=), so the output is seeded with
	// the bias, or zero, with no extra pass over it.
	colK, colN := cg*kh*kw, oh*ow
	if bd == nil {
		clear(od)
	} else {
		for idx := 0; idx < n*m; idx++ {
			fill(od[idx*colN:][:colN], bd[idx%m])
		}
	}
	// A 1x1 stride-1 unpadded kernel needs no patch expansion: the plane
	// group itself is already the cg x (h*w) matrix.
	needCol := win != window{kh: 1, kw: 1, sh: 1, sw: 1}
	var col []float32
	if needCol {
		col = tensor.AllocUninit(a, colK*colN)
	}
	mPerG := m / cv.groups
	for b := 0; b < n; b++ {
		for g := 0; g < cv.groups; g++ {
			colMat := xd[(b*c+g*cg)*h*wd : (b*c+(g+1)*cg)*h*wd]
			if needCol {
				kernels.Im2col(col, colMat, cg, h, wd, kh, kw, win.sh, win.sw, win.pt, win.pl, oh, ow)
				colMat = col
			}
			cSlice := od[(b*m+g*mPerG)*colN : (b*m+(g+1)*mPerG)*colN]
			if pp != nil {
				kernels.GemmPackedAEpi(pp.A[g], colN, colMat, colN, false, cSlice, colN, a, cv.epi)
			} else {
				wg := wdata[g*mPerG*colK : (g+1)*mPerG*colK]
				kernels.GemmEpi(1, mPerG, colN, colK, wg, colK, false, colMat, colN, false, cSlice, colN, a, cv.epi)
			}
		}
	}
	tensor.Free(a, col)
	return []*tensor.Tensor{out}, nil
}

// pool is one MaxPool, AveragePool or GlobalAveragePool node, decoded once
// by bindPool, so a run reads no attributes. A run clamps each output
// row's windows to the input rows and hands the row to kernels.PoolRow;
// no tap is bounds-tested.
type pool struct {
	op     string
	avg    bool // AveragePool or GlobalAveragePool, else MaxPool
	global bool // the window is the whole plane
	win    window
	area   int   // the divisor under count_include_pad, else 0
	err    error // an attribute error, reported when the node runs
}

// bindPool binds a pooling op; GlobalAveragePool is an AveragePool whose
// window is the whole plane, and reads no attributes.
func bindPool(op string) binder {
	return func(attrs Attrs, _ []*tensor.Tensor) *Bound {
		p := &pool{op: op, avg: op != "MaxPool", global: op == "GlobalAveragePool", win: window{sh: 1, sw: 1}}
		if !p.global {
			p.win, p.err = decodeWindow(op, attrs)
			if attrs.Int("count_include_pad", 0) != 0 {
				p.area = p.win.kh * p.win.kw
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
	win := p.win
	if p.global { // the plane as one row: one window, summed in memory order
		h, w, win.kh, win.kw = 1, h*w, 1, h*w
	}
	oh, ow := win.out(h, w)
	if oh <= 0 || ow <= 0 {
		return nil, argErr(p.op, "non-positive output size %dx%d", oh, ow)
	}
	out := tensor.New(tensor.Shape{n, c, oh, ow}, tensor.AllocUninit(a, n*c*oh*ow)) // every element is written
	xd, od := in[0].Data(), out.Data()
	tensor.ParallelRange(n*c, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x, o := xd[i*h*w:][:h*w], od[i*oh*ow:][:oh*ow]
			for oy := 0; oy < oh; oy++ {
				y0, y1, _ := win.clampRows(oy, h)
				kernels.PoolRow(o[oy*ow:][:ow], x[y0*w:y1*w], w, win.kw, win.sw, win.pl, p.area, p.avg)
			}
		}
	})
	return []*tensor.Tensor{out}, nil
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
