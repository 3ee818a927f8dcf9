package ops

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// viewCase is one MatMul with views, a bias and an activation, together
// with the explicit Reshape→Transpose→MatMul→Add→Relu→Transpose→Reshape
// chain it stands for.
type viewCase struct {
	attrs Attrs
	in    []*tensor.Tensor // stored A, stored B, then the bias if any
	views [3]view          // what the chain does around the MatMul
	relu  bool
}

func (c viewCase) String() string {
	return fmt.Sprintf("MatMul %v x %v attrs %v", c.in[0].Shape(), c.in[1].Shape(), c.attrs)
}

// drawViewCase draws a case from pick, which returns a value in [0, n):
// rank-2 to rank-4 products with extents 0 to 4, broadcast batch dims,
// GEMM-addressable permutations, Reshapes that split a stored dimension
// (with ONNX's 0 and -1 in their dims), and an [N] or [1,N] bias.
func drawViewCase(pick func(n int) int, rng *tensor.RNG) viewCase {
	nb := pick(3)
	batch := make(tensor.Shape, nb)
	for d := range batch {
		batch[d] = 1 + pick(3)
	}
	m, k, n := pick(5), pick(5), pick(5)
	operand := func(rows, cols int) tensor.Shape {
		s := make(tensor.Shape, 0, nb+2)
		for _, e := range batch {
			if pick(3) == 0 {
				e = 1
			}
			s = append(s, e)
		}
		return append(s, rows, cols)
	}
	la, lb := operand(m, k), operand(k, n)
	var c viewCase
	c.attrs = Attrs{}
	for which, logical := range []tensor.Shape{la, lb} {
		perm := drawPerm(pick, len(logical), which)
		// The stored layout D the perm reads: D[perm[i]] = logical[i].
		d := logical.Clone()
		for i, p := range perm {
			d[p] = logical[i]
		}
		stored, dims := drawReshape(pick, d)
		c.in = append(c.in, rng.RandTensor(stored...))
		c.views[which] = view{dims: dims, perm: perm}
	}
	r := append(batch.Clone(), m, n)
	for d := range batch {
		r[d] = max(la[d], lb[d])
	}
	yPerm := drawPerm(pick, len(r), ViewY)
	t := r.Clone()
	for i, p := range yPerm {
		t[i] = r[p]
	}
	_, yDims := drawReshape(pick, t)
	c.views[ViewY] = view{dims: yDims, perm: yPerm}
	for which, v := range c.views {
		dk, pk := ViewKeys(which)
		if v.dims != nil {
			c.attrs[dk] = v.dims
		}
		if v.perm != nil {
			c.attrs[pk] = v.perm
		}
	}
	switch pick(3) {
	case 1:
		c.in = append(c.in, rng.RandTensor(n))
	case 2:
		c.in = append(c.in, rng.RandTensor(1, n))
	}
	if c.relu = pick(2) == 1; c.relu {
		c.attrs[AttrEpilogueOp] = "Relu"
	}
	return c
}

// drawPerm draws nil (no transpose) or a permutation of rank r that the
// GEMM core can address for which.
func drawPerm(pick func(n int) int, r, which int) []int {
	if pick(4) == 0 {
		return nil
	}
	p := make([]int, r)
	for i := range p {
		p[i] = i
	}
	for i := r - 1; i > 0; i-- {
		j := pick(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	if !GemmAddressable(which, p) {
		// Move the unit-stride axis to a place the GEMM core reads it.
		at := r - 1
		if which != ViewY && pick(2) == 0 {
			at = r - 2
		}
		for i, d := range p {
			if d == r-1 {
				p[i], p[at] = p[at], p[i]
				break
			}
		}
	}
	return p
}

// drawReshape draws a stored shape that reshapes to d, by merging two
// adjacent dims of d or by keeping it, and the Reshape dims that undo it:
// nil (no Reshape), d, or d with a 0 where a leading dim is kept and a -1
// in place of one dim. An empty d gets no Reshape: ONNX reads a 0 in the
// dims as "copy the input's dim".
func drawReshape(pick func(n int) int, d tensor.Shape) (stored tensor.Shape, dims []int) {
	if pick(3) == 0 || d.Numel() == 0 {
		return d.Clone(), nil
	}
	stored = d.Clone()
	if len(d) >= 2 {
		i := pick(len(d) - 1)
		stored = append(append(d[:i:i].Clone(), d[i]*d[i+1]), d[i+2:]...)
	}
	dims = append([]int(nil), d...)
	if pick(2) == 0 && len(stored) > 0 && stored[0] == d[0] {
		dims[0] = 0
	}
	if i := pick(len(d)); pick(2) == 0 && dims[i] != 0 {
		dims[i] = -1
	}
	return stored, dims
}

// chain computes c's reference through the unfused kernels.
func (c viewCase) chain(t testing.TB) *tensor.Tensor {
	t.Helper()
	run := func(op string, attrs Attrs, in ...*tensor.Tensor) *tensor.Tensor {
		t.Helper()
		out, err := call(op, in, attrs)
		if err != nil {
			t.Fatalf("%v: reference %s: %v", c, op, err)
		}
		return out[0]
	}
	var ops [2]*tensor.Tensor
	for i := range ops {
		x, v := c.in[i], c.views[i]
		if v.dims != nil {
			x = run("Reshape", Attrs{"shape": v.dims}, x)
		}
		if v.perm != nil {
			x = run("Transpose", Attrs{"perm": v.perm}, x)
		}
		ops[i] = x
	}
	y := run("MatMul", nil, ops[0], ops[1])
	if len(c.in) == 3 {
		y = run("Add", nil, y, c.in[2])
	}
	if c.relu {
		y = run("Relu", nil, y)
	}
	if v := c.views[ViewY]; v.perm != nil {
		y = run("Transpose", Attrs{"perm": v.perm}, y)
	}
	if v := c.views[ViewY]; v.dims != nil {
		y = run("Reshape", Attrs{"shape": v.dims}, y)
	}
	return y
}

// check runs c's fused MatMul, bound with and without B as a constant,
// at one and two intra-op workers, on the heap and on ar (its outputs
// returned NaN-filled), and compares it with want bit for bit.
func (c viewCase) check(t testing.TB, want *tensor.Tensor, ar *tensor.Arena) {
	t.Helper()
	for _, consts := range [][]*tensor.Tensor{nil, {nil, c.in[1]}} {
		k, err := Bind("MatMul", c.attrs, consts)
		if err != nil {
			t.Fatal(err)
		}
		if c.views[ViewB].dims != nil || c.views[ViewB].perm != nil {
			if k.Packed != nil {
				t.Fatalf("%v: a B operand with a view was prepacked", c)
			}
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
				where := fmt.Sprintf("%v (const B %v, threads %d, arena %v)", c, consts != nil, threads, a != nil)
				switch {
				case err != nil:
					t.Fatalf("%s: %v", where, err)
				case !got[0].Shape().Equal(want.Shape()):
					t.Fatalf("%s: shape %v, want %v", where, got[0].Shape(), want.Shape())
				case !bitsEqual(got[0].Data(), want.Data()):
					t.Fatalf("%s: differs from the Reshape/Transpose chain", where)
				}
				if a != nil {
					dirty(a, got)
				}
			}
		}
	}
}

// TestMatMulViewsMatchChain checks MatMuls with operand and output views,
// biases and a Relu against the explicit chains they replace, bit for bit.
func TestMatMulViewsMatchChain(t *testing.T) {
	pick := rand.New(rand.NewSource(7)).Intn
	rng := tensor.NewRNG(7)
	ar := tensor.NewArena()
	for i := 0; i < 400; i++ {
		c := drawViewCase(pick, rng)
		c.check(t, c.chain(t), ar)
	}
	// BERT's attention: the Q·Kᵀ scores read both head splits straight
	// from the [1,16,32] projections; the context writes the head merge.
	r := tensor.NewRNG(3)
	split := Attrs{AttrViewADims: []int{1, 16, 4, 8}, AttrViewAPerm: []int{0, 2, 1, 3},
		AttrViewBDims: []int{1, 16, 4, 8}, AttrViewBPerm: []int{0, 2, 3, 1}}
	merge := Attrs{AttrViewBDims: []int{1, 16, 4, 8}, AttrViewBPerm: []int{0, 2, 1, 3},
		AttrViewYPerm: []int{0, 2, 1, 3}, AttrViewYDims: []int{1, 16, 32}}
	for _, c := range []viewCase{
		{attrs: split, in: []*tensor.Tensor{r.RandTensor(1, 16, 32), r.RandTensor(1, 16, 32)},
			views: [3]view{{[]int{1, 16, 4, 8}, []int{0, 2, 1, 3}}, {[]int{1, 16, 4, 8}, []int{0, 2, 3, 1}}}},
		{attrs: merge, in: []*tensor.Tensor{r.RandTensor(1, 4, 16, 16), r.RandTensor(1, 16, 32)},
			views: [3]view{{}, {[]int{1, 16, 4, 8}, []int{0, 2, 1, 3}}, {[]int{1, 16, 32}, []int{0, 2, 1, 3}}}},
	} {
		c.check(t, c.chain(t), ar)
	}
}

// TestMatMulViewErrors: a view the GEMM core cannot address fails every
// run, and so do a bias of the wrong length and a view of the wrong rank.
func TestMatMulViewErrors(t *testing.T) {
	r := tensor.NewRNG(1)
	a, b := r.RandTensor(2, 3, 4), r.RandTensor(2, 4, 5)
	for _, c := range []struct {
		attrs Attrs
		in    []*tensor.Tensor
	}{
		{Attrs{AttrViewAPerm: []int{2, 1, 0}}, []*tensor.Tensor{a, b}}, // unit stride leads
		{Attrs{AttrViewYPerm: []int{0, 2, 1}}, []*tensor.Tensor{a, b}}, // output columns strided
		{Attrs{AttrViewBPerm: []int{0, 1}}, []*tensor.Tensor{a, b}},    // rank mismatch
		{Attrs{AttrViewADims: []int{5, 5}}, []*tensor.Tensor{a, b}},    // bad reshape
		{nil, []*tensor.Tensor{a, b, r.RandTensor(4)}},                 // bias of K, not N
		{Attrs{AttrViewAPerm: []int{0, 0, 1}}, []*tensor.Tensor{a, b}}, // not a permutation
	} {
		if _, err := call("MatMul", c.in, c.attrs); err == nil {
			t.Errorf("MatMul %v: accepted", c.attrs)
		}
	}
}

// TestMatMulSharedBindingConcurrent runs one bound MatMul from several
// goroutines at once on alternating input shapes, as concurrent sessions
// of one plan do, so the geometry it remembers between runs is shared and
// replaced while other runs read it.
func TestMatMulSharedBindingConcurrent(t *testing.T) {
	r := tensor.NewRNG(4)
	attrs := Attrs{AttrViewADims: []int{0, 0, 4, 2}, AttrViewAPerm: []int{0, 2, 1, 3}}
	var cases []viewCase
	for _, s := range []int{3, 5} {
		c := viewCase{attrs: attrs, in: []*tensor.Tensor{r.RandTensor(1, s, 8), r.RandTensor(2, 5)},
			views: [3]view{{dims: []int{0, 0, 4, 2}, perm: []int{0, 2, 1, 3}}}}
		cases = append(cases, c)
	}
	want := []*tensor.Tensor{cases[0].chain(t), cases[1].chain(t)}
	k, err := Bind("MatMul", attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := (g + i) % 2
				got, err := k.Run(cases[c].in, nil, false)
				if err != nil || !bitsEqual(got[0].Data(), want[c].Data()) {
					t.Errorf("goroutine %d run %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMatMulViewScratch: the scratch estimate sizes the packing of the
// viewed operands, BERT's Q [16,8] and Kᵀ [8,16] read from [1,16,32]
// projections, not of the stored shapes.
func TestMatMulViewScratch(t *testing.T) {
	attrs := Attrs{AttrViewADims: []int{1, 16, 4, 8}, AttrViewAPerm: []int{0, 2, 1, 3},
		AttrViewBDims: []int{1, 16, 4, 8}, AttrViewBPerm: []int{0, 2, 3, 1}}
	in := []*tensor.Tensor{tensor.Zeros(1, 16, 32), tensor.Zeros(1, 16, 32)}
	want := kernels.PackedASize(16, 8) + kernels.PackedBSize(8, 16)
	if got := ScratchElems("MatMul", attrs, in); got != want {
		t.Fatalf("ScratchElems = %d, want %d", got, want)
	}
}
