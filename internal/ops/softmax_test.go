package ops

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// refSoftmax is Softmax along axis in float64: subtract the row's maximum
// (NaN entries never raise it, and it starts at the lowest finite float32),
// exponentiate and divide by the row sum. A row holding NaN or +Inf comes
// out all NaN, and a row of only -Inf all 0.
func refSoftmax(x *tensor.Tensor, axis int) []float64 {
	s := x.Shape()
	inner := 1
	for d := axis + 1; d < s.Rank(); d++ {
		inner *= s[d]
	}
	n := s[axis]
	out := make([]float64, x.Numel())
	xd := x.Data()
	for base := range out {
		if base/inner%max(n, 1) != 0 {
			continue // not the first element of its row
		}
		m := -float64(math.MaxFloat32)
		for a := range n {
			if v := float64(xd[base+a*inner]); v > m {
				m = v
			}
		}
		var sum float64
		for a := range n {
			e := math.Exp(float64(xd[base+a*inner]) - m)
			out[base+a*inner] = e
			sum += e
		}
		if sum == 0 {
			continue
		}
		for a := range n {
			out[base+a*inner] /= sum
		}
	}
	return out
}

// softmaxInput draws a tensor of shape s of one kind: plain values spread
// over ±30, values with -Inf among them, values with NaN and +Inf among
// them, or one repeated value, so every row is all-equal.
func softmaxInput(pick *rand.Rand, s tensor.Shape, kind int) *tensor.Tensor {
	x := tensor.NewRNG(uint64(pick.Int63())).RandTensor(s...)
	d := x.Data()
	c := float32(pick.NormFloat64() * 10)
	for i := range d {
		d[i] *= 30
		switch {
		case kind == 1 && pick.Intn(3) == 0:
			d[i] = float32(math.Inf(-1))
		case kind == 2 && pick.Intn(8) == 0:
			d[i] = float32(math.NaN())
		case kind == 2 && pick.Intn(16) == 0:
			d[i] = float32(math.Inf(1))
		case kind == 3:
			d[i] = c
		}
	}
	return x
}

// checkSoftmax runs Softmax on x along axis (given as written, negative
// included) and compares it with refSoftmax: NaN exactly where the
// reference has NaN, exact 0 for every -Inf entry of a row that is not
// NaN, bit-identical entries along an all-equal row, and within 2e-6 of
// the reference elsewhere. a, when non-nil, is an arena the output goes
// back to filled with NaN.
func checkSoftmax(t *testing.T, x *tensor.Tensor, axis int, a *tensor.Arena) {
	t.Helper()
	where := fmt.Sprintf("Softmax axis %d on %v", axis, x.Shape())
	k, err := Bind("Softmax", Attrs{"axis": axis}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var alc tensor.Allocator
	if a != nil {
		alc = a
	}
	out, err := k.Run([]*tensor.Tensor{x}, alc, false)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if !out[0].Shape().Equal(x.Shape()) {
		t.Fatalf("%s: shape %v", where, out[0].Shape())
	}
	if axis < 0 {
		axis += x.Rank()
	}
	want, got, xd := refSoftmax(x, axis), out[0].Data(), x.Data()
	inner := 1
	for d := axis + 1; d < x.Rank(); d++ {
		inner *= x.Shape()[d]
	}
	for i, w := range want {
		g := got[i]
		switch {
		case math.IsNaN(w) != (g != g):
			t.Fatalf("%s: [%d] = %v, want %v (input %v)", where, i, g, w, xd[i])
		case math.IsNaN(w):
		case math.IsInf(float64(xd[i]), -1) && math.Float32bits(g) != 0:
			t.Fatalf("%s: [%d] = %v for a -Inf input, want exact 0", where, i, g)
		case math.Abs(float64(g)-w) > 2e-6:
			t.Fatalf("%s: [%d] = %v, want %v", where, i, g, w)
		}
		// Equal inputs along a row give bit-identical outputs.
		if row := i / inner % x.Shape()[axis]; row > 0 && xd[i] == xd[i-inner] && math.Float32bits(g) != math.Float32bits(got[i-inner]) {
			t.Fatalf("%s: [%d] = %v but [%d] = %v for equal inputs", where, i, g, i-inner, got[i-inner])
		}
	}
	if a != nil {
		dirty(a, out)
	}
}

// TestSoftmaxMatchesReference runs Softmax over random shapes of rank 1 to
// 4 (extent 0 included) along every axis against a float64 reference, at
// one and two intra-op workers, on the heap and on an arena of recycled
// NaN-filled buffers. Rows hold -Inf entries, NaN entries or one repeated
// value; large extents take the parallel path.
func TestSoftmaxMatchesReference(t *testing.T) {
	pick := rand.New(rand.NewSource(33))
	var xs []*tensor.Tensor
	for range 300 {
		s := make(tensor.Shape, 1+pick.Intn(4))
		for d := range s {
			s[d] = 1 + pick.Intn(7)
			if pick.Intn(40) == 0 {
				s[d] = 0
			}
		}
		xs = append(xs, softmaxInput(pick, s, pick.Intn(4)))
	}
	for kind := range 4 {
		xs = append(xs, softmaxInput(pick, tensor.Shape{1, 4, 16, 16}, kind), softmaxInput(pick, tensor.Shape{33, 130}, kind))
	}
	ar := tensor.NewArena()
	for _, x := range xs {
		for axis := range x.Rank() {
			for _, threads := range []int{1, 2} {
				tensor.WithIntraOpThreads(threads, func() {
					checkSoftmax(t, x, axis, nil)
					checkSoftmax(t, x, axis-x.Rank(), ar)
				})
			}
		}
	}
}
