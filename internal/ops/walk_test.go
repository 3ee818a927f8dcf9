package ops

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The references below turn every flat output index into coordinates with
// one division and one modulo per dimension. They share no index code with
// the kernels, so the strided ops are checked against them bit for bit.

// refTranspose permutes x's dimensions: output dimension d is input
// dimension perm[d].
func refTranspose(x *tensor.Tensor, perm []int) *tensor.Tensor {
	rank := x.Rank()
	outShape := make(tensor.Shape, rank)
	for i, p := range perm {
		outShape[i] = x.Shape()[p]
	}
	out := tensor.Zeros(outShape...)
	xd, od := x.Data(), out.Data()
	inStrides := x.Shape().Strides()
	outStrides := outShape.Strides()
	idx := make([]int, rank)
	for i := range od {
		rem := i
		for d := 0; d < rank; d++ {
			idx[d] = rem / outStrides[d]
			rem %= outStrides[d]
		}
		src := 0
		for d := 0; d < rank; d++ {
			src += idx[d] * inStrides[perm[d]]
		}
		od[i] = xd[src]
	}
	return out
}

// refSlice copies the box [lo, hi) of x.
func refSlice(x *tensor.Tensor, lo, hi []int) *tensor.Tensor {
	rank := x.Rank()
	outShape := make(tensor.Shape, rank)
	for d := range outShape {
		outShape[d] = hi[d] - lo[d]
	}
	out := tensor.Zeros(outShape...)
	od, xd := out.Data(), x.Data()
	inStrides := x.Shape().Strides()
	outStrides := outShape.Strides()
	for i := range od {
		rem := i
		src := 0
		for d := 0; d < rank; d++ {
			pos := rem / outStrides[d]
			rem %= outStrides[d]
			src += (pos + lo[d]) * inStrides[d]
		}
		od[i] = xd[src]
	}
	return out
}

// refBroadcast applies f to a and b broadcast to their common shape
// (NumPy rules, shapes right-aligned).
func refBroadcast(f func(a, b float32) float32, a, b *tensor.Tensor) (*tensor.Tensor, error) {
	os, err := tensor.Broadcast(a.Shape(), b.Shape())
	if err != nil {
		return nil, err
	}
	out := tensor.Zeros(os...)
	od, ad, bd := out.Data(), a.Data(), b.Data()
	oStrides := os.Strides()
	// operandIndex maps an output coordinate list onto operand s.
	operandIndex := func(s tensor.Shape, coord []int) int {
		idx, stride := 0, 1
		for d := len(s) - 1; d >= 0; d-- {
			if s[d] != 1 {
				idx += coord[d+len(os)-len(s)] * stride
			}
			stride *= s[d]
		}
		return idx
	}
	coord := make([]int, len(os))
	for i := range od {
		rem := i
		for d := range os {
			coord[d] = rem / oStrides[d]
			rem %= oStrides[d]
		}
		od[i] = f(ad[operandIndex(a.Shape(), coord)], bd[operandIndex(b.Shape(), coord)])
	}
	return out, nil
}

// refReduceMean averages x over the dimensions marked in reduce, keeping
// them as extent 1 when keep is set. Every output cell sums its inputs in
// float64, in row-major input order.
func refReduceMean(x *tensor.Tensor, reduce []bool, keep bool) *tensor.Tensor {
	xs := x.Shape()
	outShape := tensor.Shape{}
	count := 1
	for d, r := range reduce {
		if r {
			count *= xs[d]
			if keep {
				outShape = append(outShape, 1)
			}
		} else {
			outShape = append(outShape, xs[d])
		}
	}
	out := tensor.Zeros(outShape...)
	od, xd := out.Data(), x.Data()
	xStrides := xs.Strides()
	outStride := make([]int, xs.Rank())
	acc := 1
	for d := xs.Rank() - 1; d >= 0; d-- {
		if !reduce[d] {
			outStride[d] = acc
			acc *= xs[d]
		}
	}
	sums := make([]float64, out.Numel())
	for i := range xd {
		oi := 0
		rem := i
		for d := 0; d < xs.Rank(); d++ {
			pos := rem / xStrides[d]
			rem %= xStrides[d]
			oi += pos * outStride[d]
		}
		sums[oi] += float64(xd[i])
	}
	if count == 0 {
		count = 1
	}
	for i := range od {
		od[i] = float32(sums[i] / float64(count))
	}
	return out
}

// refConcat joins ins along axis: every output element finds its input
// from its coordinate on the axis.
func refConcat(axis int, ins []*tensor.Tensor) *tensor.Tensor {
	shapes := make([]tensor.Shape, len(ins))
	for i, t := range ins {
		shapes[i] = t.Shape()
	}
	os, err := tensor.Concat(axis, shapes...)
	if err != nil {
		panic(err)
	}
	out := tensor.Zeros(os...)
	od := out.Data()
	oStrides := os.Strides()
	coord := make([]int, len(os))
	for i := range od {
		rem := i
		for d := range os {
			coord[d] = rem / oStrides[d]
			rem %= oStrides[d]
		}
		t, at := 0, coord[axis]
		for at >= ins[t].Shape()[axis] {
			at -= ins[t].Shape()[axis]
			t++
		}
		src, stride := 0, 1
		for d := len(os) - 1; d >= 0; d-- {
			c := coord[d]
			if d == axis {
				c = at
			}
			src += c * stride
			stride *= ins[t].Shape()[d]
		}
		od[i] = ins[t].Data()[src]
	}
	return out
}

// refBatchedMatMul multiplies a and b batch by batch: each broadcast batch
// index is split into coordinates, each operand's matrix is found from
// them, and the pair runs as one 2-D MatMul.
func refBatchedMatMul(t testing.TB, a, b *tensor.Tensor) *tensor.Tensor {
	as, bs := a.Shape(), b.Shape()
	m, k, n := as[len(as)-2], as[len(as)-1], bs[len(bs)-1]
	batch, err := tensor.Broadcast(as[:len(as)-2], bs[:len(bs)-2])
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.Zeros(append(batch.Clone(), m, n)...)
	bStrides := batch.Strides()
	coord := make([]int, len(batch))
	matrix := func(x *tensor.Tensor, rows, cols int) *tensor.Tensor {
		dims := x.Shape()[:x.Rank()-2]
		idx, stride := 0, 1
		for d := len(dims) - 1; d >= 0; d-- {
			if dims[d] != 1 {
				idx += coord[d+len(batch)-len(dims)] * stride
			}
			stride *= dims[d]
		}
		return tensor.New(tensor.Shape{rows, cols}, x.Data()[idx*rows*cols:(idx+1)*rows*cols])
	}
	for i := 0; i < batch.Numel(); i++ {
		rem := i
		for d := range batch {
			coord[d] = rem / bStrides[d]
			rem %= bStrides[d]
		}
		prod, err := call("MatMul", []*tensor.Tensor{matrix(a, m, k), matrix(b, k, n)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		copy(out.Data()[i*m*n:], prod[0].Data())
	}
	return out
}

// sliceBox applies ONNX Slice's rules to shape: negative starts, ends and
// axes count from the end, bounds clamp to the extent, and an empty range
// stays empty. ok is false for an axis out of range.
func sliceBox(shape tensor.Shape, starts, ends, axes []int) (lo, hi []int, ok bool) {
	lo, hi = make([]int, len(shape)), shape.Clone()
	for i, a := range axes {
		if a < 0 {
			a += len(shape)
		}
		if a < 0 || a >= len(shape) {
			return nil, nil, false
		}
		dim := shape[a]
		s, e := starts[i], ends[i]
		if s < 0 {
			s += dim
		}
		if e < 0 {
			e += dim
		}
		s, e = min(max(s, 0), dim), min(max(e, 0), dim)
		lo[a], hi[a] = s, max(e, s)
	}
	return lo, hi, true
}

// stridedCase is one bound-kernel call and the outputs it must produce.
type stridedCase struct {
	name   string
	op     string
	attrs  Attrs
	consts []*tensor.Tensor
	in     []*tensor.Tensor
	want   []*tensor.Tensor
}

// caseGen draws the random shapes, attributes and data of stridedCases.
type caseGen struct {
	pick *rand.Rand
	data *tensor.RNG
}

// shape draws a rank-r shape. Extents are 0 to 5, 1 often and 0 rarely;
// from rank 5 up they stay at most 3 so tensors stay small.
func (g *caseGen) shape(r int) tensor.Shape {
	s := make(tensor.Shape, r)
	top := 5
	if r >= 5 {
		top = 3
	}
	for d := range s {
		switch p := g.pick.Intn(12); {
		case p == 0:
			s[d] = 0
		case p < 4:
			s[d] = 1
		default:
			s[d] = 2 + g.pick.Intn(top-1)
		}
	}
	return s
}

// rank draws a rank from 0 to 7; rank 7 is above walkInline.
func (g *caseGen) rank() int { return g.pick.Intn(8) }

// partner derives from s a shape that broadcasts to it: some leading
// dimensions dropped and some extents set to 1.
func (g *caseGen) partner(s tensor.Shape) tensor.Shape {
	p := s[g.pick.Intn(len(s)+1):].Clone()
	for d := range p {
		if g.pick.Intn(3) == 0 {
			p[d] = 1
		}
	}
	return p
}

// permutations lists every permutation of 0..r-1.
func permutations(r int) [][]int {
	if r == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(r - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int{}, p[:at]...), r-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

func (g *caseGen) transposes() []stridedCase {
	var cs []stridedCase
	add := func(x *tensor.Tensor, perm []int) {
		attrs := Attrs{"perm": perm}
		if perm == nil {
			attrs = nil
			perm = make([]int, x.Rank())
			for i := range perm {
				perm[i] = x.Rank() - 1 - i
			}
		}
		cs = append(cs, stridedCase{name: fmt.Sprintf("Transpose %v perm %v", x.Shape(), perm), op: "Transpose",
			attrs: attrs, in: []*tensor.Tensor{x}, want: []*tensor.Tensor{refTranspose(x, perm)}})
	}
	// Every permutation of ranks up to 5, random ones above.
	for r := 0; r <= 7; r++ {
		for n := 0; n < 6; n++ {
			x := g.data.RandTensor(g.shape(r)...)
			if r <= 5 {
				for _, p := range permutations(r) {
					add(x, p)
				}
			} else {
				add(x, g.pick.Perm(r))
			}
			add(x, nil)
		}
	}
	// Larger than the parallel grain, at rank 4 and at rank 7 with nothing
	// to merge, so two workers each walk their own heap state.
	add(g.data.RandTensor(2, 16, 12, 8), []int{0, 2, 1, 3})
	add(g.data.RandTensor(2, 16, 12, 8), []int{0, 2, 3, 1})
	add(g.data.RandTensor(2, 3, 4, 3, 4, 3, 4), nil)
	return cs
}

func (g *caseGen) slices() []stridedCase {
	var cs []stridedCase
	for c := 0; c < 400; c++ {
		r := 1 + g.pick.Intn(7)
		x := g.data.RandTensor(g.shape(r)...)
		var starts, ends, axes []int
		attrs := Attrs{}
		for _, a := range g.pick.Perm(r)[:1+g.pick.Intn(r)] {
			if g.pick.Intn(3) == 0 {
				a -= r
			}
			dim := x.Shape()[(a+r)%r]
			axes = append(axes, a)
			starts = append(starts, g.pick.Intn(2*dim+5)-dim-2)
			if g.pick.Intn(5) == 0 {
				ends = append(ends, math.MaxInt32)
			} else {
				ends = append(ends, g.pick.Intn(2*dim+5)-dim-2)
			}
		}
		if g.pick.Intn(4) == 0 { // no axes attribute: the leading axes in order
			axes = make([]int, len(starts))
			for i := range axes {
				axes[i] = i
			}
		} else {
			attrs["axes"] = axes
		}
		attrs["starts"], attrs["ends"] = starts, ends
		lo, hi, ok := sliceBox(x.Shape(), starts, ends, axes)
		if !ok {
			continue
		}
		cs = append(cs, stridedCase{name: fmt.Sprintf("Slice %v %v", x.Shape(), attrs), op: "Slice",
			attrs: attrs, in: []*tensor.Tensor{x}, want: []*tensor.Tensor{refSlice(x, lo, hi)}})
	}
	return cs
}

func (g *caseGen) splits() []stridedCase {
	var cs []stridedCase
	for c := 0; c < 300; c++ {
		r := 1 + g.pick.Intn(7)
		x := g.data.RandTensor(g.shape(r)...)
		axis := g.pick.Intn(r)
		axisLen := x.Shape()[axis]
		if axisLen == 0 {
			continue
		}
		var sizes []int
		attrs := Attrs{"axis": axis}
		if g.pick.Intn(4) == 0 {
			attrs["axis"] = axis - r
		}
		if g.pick.Intn(2) == 0 {
			var divisors []int
			for n := 1; n <= axisLen; n++ {
				if axisLen%n == 0 {
					divisors = append(divisors, n)
				}
			}
			num := divisors[g.pick.Intn(len(divisors))]
			attrs["num"] = num
			for range num {
				sizes = append(sizes, axisLen/num)
			}
		} else {
			for left := axisLen; left > 0; {
				s := 1 + g.pick.Intn(left)
				sizes = append(sizes, s)
				left -= s
			}
			attrs["split"] = sizes
		}
		var want []*tensor.Tensor
		lo, hi := make([]int, r), x.Shape().Clone()
		for _, s := range sizes {
			hi[axis] = lo[axis] + s
			want = append(want, refSlice(x, lo, hi))
			lo[axis] = hi[axis]
		}
		cs = append(cs, stridedCase{name: fmt.Sprintf("Split %v %v", x.Shape(), attrs), op: "Split",
			attrs: attrs, in: []*tensor.Tensor{x}, want: want})
	}
	return cs
}

func (g *caseGen) concats() []stridedCase {
	var cs []stridedCase
	for c := 0; c < 300; c++ {
		r := 1 + g.pick.Intn(7)
		base := g.shape(r)
		axis := g.pick.Intn(r)
		var in []*tensor.Tensor
		for n := 1 + g.pick.Intn(3); n > 0; n-- {
			s := base.Clone()
			s[axis] = g.pick.Intn(4)
			in = append(in, g.data.RandTensor(s...))
		}
		attr := axis
		if g.pick.Intn(4) == 0 {
			attr -= r
		}
		cs = append(cs, stridedCase{name: fmt.Sprintf("Concat %v axis %d", base, attr), op: "Concat",
			attrs: Attrs{"axis": attr}, in: in, want: []*tensor.Tensor{refConcat(axis, in)}})
	}
	// inception_v3's channel concat, twice the 2048-element grain and more.
	in := []*tensor.Tensor{g.data.RandTensor(1, 64, 5, 5), g.data.RandTensor(1, 96, 5, 5)}
	cs = append(cs, stridedCase{name: "Concat inception", op: "Concat",
		attrs: Attrs{"axis": 1}, in: in, want: []*tensor.Tensor{refConcat(1, in)}})
	return cs
}

// binaryRefs are the scalar functions of the broadcasting binary ops.
var binaryRefs = map[string]func(a, b float32) float32{
	"Add": func(a, b float32) float32 { return a + b },
	"Sub": func(a, b float32) float32 { return a - b },
	"Mul": func(a, b float32) float32 { return a * b },
	"Div": func(a, b float32) float32 { return a / b },
	"Pow": pow32,
}

func (g *caseGen) broadcasts() []stridedCase {
	var cs []stridedCase
	add := func(op string, a, b *tensor.Tensor) {
		want, err := refBroadcast(binaryRefs[op], a, b)
		if err != nil {
			panic(err)
		}
		cs = append(cs, stridedCase{name: fmt.Sprintf("%s %v %v", op, a.Shape(), b.Shape()), op: op,
			in: []*tensor.Tensor{a, b}, want: []*tensor.Tensor{want}})
	}
	ops := []string{"Add", "Sub", "Mul", "Div", "Pow"}
	for c := 0; c < 600; c++ {
		s := g.shape(g.rank())
		a, b := g.data.RandTensor(g.partner(s)...), g.data.RandTensor(g.partner(s)...)
		add(ops[c%len(ops)], a, b)
	}
	// Larger than the parallel grain: row, channel and outer-product forms.
	for _, p := range [][2]tensor.Shape{
		{{16, 64, 32}, {32}},
		{{32}, {16, 64, 32}},
		{{2, 32, 16, 16}, {1, 32, 1, 1}},
		{{64, 1}, {1, 64}},
		{{2, 3, 4, 3, 4, 3, 4}, {3, 1, 3, 1, 3, 1}},
	} {
		add("Add", g.data.RandTensor(p[0]...), g.data.RandTensor(p[1]...))
	}
	return cs
}

func (g *caseGen) reduceMeans() []stridedCase {
	var cs []stridedCase
	for c := 0; c < 400; c++ {
		r := g.rank()
		x := g.data.RandTensor(g.shape(r)...)
		reduce := make([]bool, r)
		attrs := Attrs{"keepdims": g.pick.Intn(2)}
		if r == 0 || g.pick.Intn(5) == 0 {
			for d := range reduce {
				reduce[d] = true
			}
			if g.pick.Intn(2) == 0 {
				attrs["axes"] = []int{}
			}
		} else {
			var axes []int
			for _, a := range g.pick.Perm(r)[:1+g.pick.Intn(r)] {
				reduce[a] = true
				if g.pick.Intn(3) == 0 {
					a -= r
				}
				axes = append(axes, a)
			}
			attrs["axes"] = axes
		}
		want := refReduceMean(x, reduce, attrs.Int("keepdims", 1) != 0)
		cs = append(cs, stridedCase{name: fmt.Sprintf("ReduceMean %v %v", x.Shape(), attrs), op: "ReduceMean",
			attrs: attrs, in: []*tensor.Tensor{x}, want: []*tensor.Tensor{want}})
	}
	return cs
}

func (g *caseGen) matMuls(t testing.TB) []stridedCase {
	var cs []stridedCase
	add := func(aShape, bShape tensor.Shape) {
		a, b := g.data.RandTensor(aShape...), g.data.RandTensor(bShape...)
		want := refBatchedMatMul(t, a, b)
		name := fmt.Sprintf("MatMul %v x %v", aShape, bShape)
		cs = append(cs, stridedCase{name: name, op: "MatMul", in: []*tensor.Tensor{a, b}, want: []*tensor.Tensor{want}})
		// A constant right operand binds prepacked.
		cs = append(cs, stridedCase{name: name + " const", op: "MatMul", consts: []*tensor.Tensor{nil, b},
			in: []*tensor.Tensor{a, b}, want: []*tensor.Tensor{want}})
	}
	add(tensor.Shape{2, 1, 3, 4}, tensor.Shape{1, 3, 4, 5})
	add(tensor.Shape{1, 3, 4, 5}, tensor.Shape{2, 1, 5, 3})
	add(tensor.Shape{3, 4}, tensor.Shape{2, 2, 4, 3})
	for c := 0; c < 150; c++ {
		batch := g.shape(g.pick.Intn(4))
		m, k, n := 1+g.pick.Intn(5), 1+g.pick.Intn(5), 1+g.pick.Intn(5)
		add(append(g.partner(batch), m, k), append(g.partner(batch), k, n))
	}
	return cs
}

// dirty returns the outputs' buffers to ar filled with NaN, so a kernel
// that leaves part of a recycled output unwritten fails the comparison.
func dirty(ar *tensor.Arena, outs []*tensor.Tensor) {
	for _, o := range outs {
		for i := range o.Data() {
			o.Data()[i] = float32(math.NaN())
		}
		tensor.ReleaseData(ar, o)
	}
}

// TestStridedOpsMatchReference runs Transpose, Slice, Split, Concat, the
// broadcasting binary ops, ReduceMean and batched MatMul on random shapes
// of rank 0 to 7 (extents 0 and 1 included) against the division-based
// references, at one and two intra-op workers, on the heap and on an arena
// of recycled NaN-filled buffers. Results must match bit for bit.
func TestStridedOpsMatchReference(t *testing.T) {
	g := &caseGen{pick: rand.New(rand.NewSource(31)), data: tensor.NewRNG(31)}
	var cases []stridedCase
	for _, cs := range [][]stridedCase{g.transposes(), g.slices(), g.splits(), g.concats(),
		g.broadcasts(), g.reduceMeans(), g.matMuls(t)} {
		cases = append(cases, cs...)
	}
	ar := tensor.NewArena()
	for _, c := range cases {
		k, err := Bind(c.op, c.attrs, c.consts)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2} {
			for _, a := range []*tensor.Arena{nil, ar} {
				var got []*tensor.Tensor
				tensor.WithIntraOpThreads(threads, func() {
					var alc tensor.Allocator
					if a != nil {
						alc = a
					}
					got, err = k.Run(c.in, alc, false)
				})
				where := fmt.Sprintf("%s (threads %d, arena %v)", c.name, threads, a != nil)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if len(got) != len(c.want) {
					t.Fatalf("%s: %d outputs, want %d", where, len(got), len(c.want))
				}
				for i, w := range c.want {
					if !got[i].Shape().Equal(w.Shape()) {
						t.Fatalf("%s: output %d shape %v, want %v", where, i, got[i].Shape(), w.Shape())
					}
					if !bitsEqual(got[i].Data(), w.Data()) {
						t.Fatalf("%s: output %d differs from the reference", where, i)
					}
				}
				if a != nil {
					dirty(a, got)
				}
			}
		}
	}
	t.Logf("%d cases", len(cases))
}

// fuzzBytes hands out the fuzzer's bytes one at a time, then zeros.
type fuzzBytes []byte

func (f *fuzzBytes) next() int {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return int(b)
}

// FuzzStridedOps decodes arbitrary bytes into a shape of rank up to 6 with
// extents up to 5, a permutation, per-axis slice bounds (negative and out
// of range included) and a broadcast partner, then into a pooling case:
// the op, an NCHW input with NaN, ±Inf and ±0 among its values, a window
// of 1 to 5 by 1 to 5 taps, strides of 1 to 3, pads of up to two more than
// the window and count_include_pad, then into a depthwise or grouped Conv
// with a bias and an epilogue (drawConvCase), and last into a MatMul with
// operand and output views, a bias and a Relu (drawViewCase). Transpose,
// Slice, Add in both operand orders, the pooling op, the Conv and the
// MatMul must not panic, and must match the references bit for bit (the
// pooling op also in its errors, a Conv that is not depthwise within the
// GEMM's rounding, the MatMul the Reshape/Transpose chain it stands for).
func FuzzStridedOps(f *testing.F) {
	f.Add([]byte{4, 1, 16, 4, 8, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3})
	f.Add([]byte{3, 2, 0, 5, 1, 1, 0xfe, 0xff, 7, 2, 0, 0x41})
	f.Add([]byte{6, 2, 3, 1, 2, 3, 2, 5, 4, 3, 2, 1, 0})
	// Rank 0, then an AveragePool with count_include_pad over [1,3,4,4],
	// 3x3 stride 2 with pads 1, 4, 0, 2.
	f.Add([]byte{0, 0, 0, 1, 0, 2, 4, 4, 2, 2, 1, 1, 1, 4, 0, 2, 1})
	// The same, then a 3x3 depthwise Conv over [1,3,7,6] with stride 2x1,
	// pads 1, 0, 2, 1 and a fused Relu; and a grouped Conv, 2 groups of 2
	// input and 3 output channels, 3x2 over [2,4,5,6], with LeakyRelu.
	f.Add([]byte{0, 0, 0, 1, 0, 2, 4, 4, 2, 2, 1, 1, 1, 4, 0, 2, 1, 2, 0, 0, 7, 6, 2, 2, 1, 0, 1, 0, 2, 1, 1})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 4, 4, 2, 2, 1, 1, 1, 4, 0, 2, 1, 1, 1, 1, 2, 1, 5, 6, 2, 1, 0, 1, 1, 1, 0, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		rank := in.next() % 7
		shape := make(tensor.Shape, rank)
		for d := range shape {
			shape[d] = in.next() % 6
		}
		x := tensor.NewRNG(uint64(len(data))).RandTensor(shape...)
		check := func(what string, got []*tensor.Tensor, err error, want *tensor.Tensor) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %v: %v", what, shape, err)
			}
			if !got[0].Shape().Equal(want.Shape()) || !bitsEqual(got[0].Data(), want.Data()) {
				t.Fatalf("%s %v: got %v, want %v", what, shape, got[0], want)
			}
		}

		perm := make([]int, rank)
		for i := range perm {
			perm[i] = i
		}
		for i := rank - 1; i > 0; i-- {
			j := in.next() % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		got, err := call("Transpose", []*tensor.Tensor{x}, Attrs{"perm": perm})
		check(fmt.Sprintf("Transpose perm %v", perm), got, err, refTranspose(x, perm))

		if rank > 0 {
			starts, ends, axes := make([]int, rank), make([]int, rank), make([]int, rank)
			for d := range axes {
				axes[d] = d
				starts[d] = int(int8(in.next())) % (shape[d] + 3)
				ends[d] = int(int8(in.next())) % (shape[d] + 3)
			}
			lo, hi, _ := sliceBox(shape, starts, ends, axes)
			got, err = call("Slice", []*tensor.Tensor{x}, Attrs{"starts": starts, "ends": ends})
			check(fmt.Sprintf("Slice %v:%v", starts, ends), got, err, refSlice(x, lo, hi))
		}

		ones := in.next()
		p := shape[in.next()%(rank+1):].Clone()
		for d := range p {
			if ones&(1<<d) != 0 {
				p[d] = 1
			}
		}
		y := tensor.NewRNG(uint64(ones)).RandTensor(p...)
		for _, ab := range [][2]*tensor.Tensor{{x, y}, {y, x}} {
			want, err := refBroadcast(binaryRefs["Add"], ab[0], ab[1])
			if err != nil {
				t.Fatal(err)
			}
			got, err := call("Add", ab[:], nil)
			check(fmt.Sprintf("Add %v %v", ab[0].Shape(), ab[1].Shape()), got, err, want)
		}

		op := []string{"MaxPool", "AveragePool", "GlobalAveragePool"}[in.next()%3]
		n, c, h, w := 1+in.next()%2, 1+in.next()%3, in.next()%8, in.next()%8
		kh, kw := 1+in.next()%5, 1+in.next()%5
		attrs := Attrs{
			"kernel_shape":      []int{kh, kw},
			"strides":           []int{1 + in.next()%3, 1 + in.next()%3},
			"pads":              []int{in.next() % (kh + 3), in.next() % (kw + 3), in.next() % (kh + 3), in.next() % (kw + 3)},
			"count_include_pad": in.next() % 2,
		}
		pc := poolCase{op, attrs, []*tensor.Tensor{poolInput(rand.New(rand.NewSource(int64(len(data)))), n, c, h, w)}}
		checkPool(t, pc, nil)

		drawConvCase(func(n int) int { return in.next() % n }, rand.New(rand.NewSource(int64(len(data))))).check(t)

		vc := drawViewCase(func(n int) int { return in.next() % n }, tensor.NewRNG(uint64(len(data))))
		vc.check(t, vc.chain(t), tensor.NewArena())
	})
}
