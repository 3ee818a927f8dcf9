package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestShapeNumel(t *testing.T) {
	cases := []struct {
		s    Shape
		want int
	}{
		{Shape{}, 1},
		{Shape{0}, 0},
		{Shape{3}, 3},
		{Shape{2, 3}, 6},
		{Shape{1, 3, 224, 224}, 150528},
		{Shape{-1, 2}, 0},
	}
	for _, c := range cases {
		if got := c.s.Numel(); got != c.want {
			t.Errorf("Numel(%v) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestShapeEqualClone(t *testing.T) {
	s := NewShape(2, 3, 4)
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatalf("clone %v not equal to original %v", c, s)
	}
	c[0] = 9
	if s[0] == 9 {
		t.Fatal("Clone did not copy the backing array")
	}
	if s.Equal(Shape{2, 3}) || s.Equal(Shape{2, 3, 5}) {
		t.Error("Equal accepted mismatched shapes")
	}
}

func TestShapeStrides(t *testing.T) {
	s := Shape{2, 3, 4}
	st := s.Strides()
	want := []int{12, 4, 1}
	for i := range want {
		if st[i] != want[i] {
			t.Fatalf("Strides(%v) = %v, want %v", s, st, want)
		}
	}
}

func TestShapeDimNegative(t *testing.T) {
	s := Shape{2, 3, 4}
	if s.Dim(-1) != 4 || s.Dim(0) != 2 {
		t.Fatalf("Dim indexing wrong: %d %d", s.Dim(-1), s.Dim(0))
	}
	defer func() {
		if recover() == nil {
			t.Error("Dim out of range did not panic")
		}
	}()
	_ = s.Dim(3)
}

func TestConcatShapes(t *testing.T) {
	got, err := Concat(1, Shape{1, 16, 8, 8}, Shape{1, 32, 8, 8}, Shape{1, 16, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(Shape{1, 64, 8, 8}) {
		t.Fatalf("Concat = %v", got)
	}
	if _, err := Concat(1, Shape{1, 16, 8, 8}, Shape{1, 16, 9, 8}); err == nil {
		t.Error("Concat accepted mismatched non-axis dims")
	}
	if _, err := Concat(7, Shape{1, 2}); err == nil {
		t.Error("Concat accepted out-of-range axis")
	}
	// Negative axis counts from the end.
	got, err = Concat(-1, Shape{2, 3}, Shape{2, 5})
	if err != nil || !got.Equal(Shape{2, 8}) {
		t.Fatalf("Concat(-1) = %v, %v", got, err)
	}
}

func TestBroadcast(t *testing.T) {
	got, err := Broadcast(Shape{1, 16, 1, 1}, Shape{4, 16, 8, 8})
	if err != nil || !got.Equal(Shape{4, 16, 8, 8}) {
		t.Fatalf("Broadcast = %v, %v", got, err)
	}
	got, err = Broadcast(Shape{5}, Shape{3, 1})
	if err != nil || !got.Equal(Shape{3, 5}) {
		t.Fatalf("Broadcast = %v, %v", got, err)
	}
	if _, err := Broadcast(Shape{3}, Shape{4}); err == nil {
		t.Error("Broadcast accepted incompatible shapes")
	}
}

func TestNewAndAt(t *testing.T) {
	tt := New(Shape{2, 3}, []float32{1, 2, 3, 4, 5, 6})
	if tt.At(1, 2) != 6 || tt.At(0, 0) != 1 {
		t.Fatalf("At wrong: %v %v", tt.At(1, 2), tt.At(0, 0))
	}
	tt.Set(42, 1, 0)
	if tt.At(1, 0) != 42 {
		t.Fatal("Set did not store")
	}
}

func TestNewPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with wrong data length did not panic")
		}
	}()
	New(Shape{2, 2}, []float32{1, 2, 3})
}

func TestReshape(t *testing.T) {
	tt := New(Shape{2, 6}, make([]float32, 12))
	r, err := tt.Reshape(3, 4)
	if err != nil || !r.Shape().Equal(Shape{3, 4}) {
		t.Fatalf("Reshape = %v, %v", r.Shape(), err)
	}
	r, err = tt.Reshape(-1, 3)
	if err != nil || !r.Shape().Equal(Shape{4, 3}) {
		t.Fatalf("Reshape infer = %v, %v", r.Shape(), err)
	}
	if _, err := tt.Reshape(5, 5); err == nil {
		t.Error("Reshape accepted wrong element count")
	}
	if _, err := tt.Reshape(-1, -1); err == nil {
		t.Error("Reshape accepted two inferred dims")
	}
	// Reshape shares data.
	r, _ = tt.Reshape(12)
	r.Data()[0] = 7
	if tt.Data()[0] != 7 {
		t.Error("Reshape copied data instead of sharing")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Full(3, 2, 2)
	b := a.Clone()
	b.Data()[0] = 9
	if a.Data()[0] != 3 {
		t.Fatal("Clone shares storage")
	}
	if !a.Equal(Full(3, 2, 2)) {
		t.Fatal("original mutated")
	}
}

func TestEqualNaN(t *testing.T) {
	a := FromSlice([]float32{float32(math.NaN()), 1})
	b := FromSlice([]float32{float32(math.NaN()), 1})
	if !a.Equal(b) {
		t.Error("Equal should treat NaN==NaN for test purposes")
	}
	b.Data()[1] = 2
	if a.Equal(b) {
		t.Error("Equal missed a difference")
	}
}

func TestAllClose(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3})
	b := FromSlice([]float32{1.0000001, 2.0000002, 3})
	if !a.AllClose(b, 1e-5, 1e-6) {
		t.Error("AllClose rejected nearly-equal tensors")
	}
	c := FromSlice([]float32{1, 2, 4})
	if a.AllClose(c, 1e-5, 1e-6) {
		t.Error("AllClose accepted differing tensors")
	}
	if a.AllClose(FromSlice([]float32{1, 2}), 1, 1) {
		t.Error("AllClose accepted shape mismatch")
	}
}

func TestAllCloseNonFinite(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, c := range []struct {
		a, b float32
		want bool
	}{
		{nan, nan, true},
		{inf, inf, true},
		{-inf, -inf, true},
		{nan, 1, false},
		{1, nan, false},
		{inf, 1, false},
		{1, inf, false},
		{inf, -inf, false},
		{nan, inf, false},
		{float32(math.Copysign(0, -1)), 0, true},
	} {
		// Generous tolerances: only the non-finite rules may reject.
		got := FromSlice([]float32{c.a}).AllClose(FromSlice([]float32{c.b}), 1, 1)
		if got != c.want {
			t.Errorf("AllClose(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSumAndMaxAbsDiff(t *testing.T) {
	a := FromSlice([]float32{1, -2, 3})
	if a.Sum() != 2 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	b := FromSlice([]float32{1, -2, 5})
	if d := a.MaxAbsDiff(b); d != 2 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
}

func TestScalarAndFromSlice(t *testing.T) {
	s := Scalar(4)
	if s.Rank() != 0 || s.Numel() != 1 || s.Data()[0] != 4 {
		t.Fatalf("Scalar wrong: %v", s)
	}
	v := FromSlice([]float32{1, 2})
	if v.Rank() != 1 || v.At(1) != 2 {
		t.Fatalf("FromSlice wrong: %v", v)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		f := r.Float32()
		if f < 0 || f >= 1 {
			t.Fatalf("Float32 out of range: %v", f)
		}
		u := r.Uniform(-2, 3)
		if u < -2 || u >= 3 {
			t.Fatalf("Uniform out of range: %v", u)
		}
		n := r.Intn(10)
		if n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %d", n)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(42)
	const n = 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := float64(r.Normal())
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("Normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("Normal variance = %v, want ~1", variance)
	}
}

func TestRandTensorBounded(t *testing.T) {
	r := NewRNG(3)
	w := r.RandTensor(8, 4, 3, 3) // conv weight OIHW, fan-in 36
	bound := 1.0 / math.Sqrt(36)
	for _, v := range w.Data() {
		if float64(v) < -bound || float64(v) >= bound {
			t.Fatalf("RandTensor value %v outside ±%v", v, bound)
		}
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	defer SetIntraOpThreads(1)
	for _, threads := range []int{1, 2, 4, 8} {
		SetIntraOpThreads(threads)
		const n = 1000
		hits := make([]int32, n)
		ParallelFor(n, 16, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("threads=%d index %d hit %d times", threads, i, h)
			}
		}
	}
}

func TestParallelRangeChunksAreDisjoint(t *testing.T) {
	defer SetIntraOpThreads(1)
	SetIntraOpThreads(4)
	const n = 103
	sum := make([]int32, n)
	ParallelRange(n, 1, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			sum[i]++
		}
	})
	for i, s := range sum {
		if s != 1 {
			t.Fatalf("index %d covered %d times", i, s)
		}
	}
}

func TestParallelForEmptyAndTiny(t *testing.T) {
	ParallelFor(0, 1, func(int) { t.Fatal("body called for n=0") })
	called := 0
	ParallelFor(1, 100, func(i int) { called++ })
	if called != 1 {
		t.Fatalf("tiny loop ran %d times", called)
	}
}

func TestSetIntraOpThreadsClamps(t *testing.T) {
	defer SetIntraOpThreads(1)
	SetIntraOpThreads(-3)
	if IntraOpThreads() != 1 {
		t.Fatalf("negative clamp: %d", IntraOpThreads())
	}
	SetIntraOpThreads(1 << 20)
	if IntraOpThreads() > 1<<16 {
		t.Fatalf("upper clamp failed: %d", IntraOpThreads())
	}
}

func TestWithIntraOpThreadsRestores(t *testing.T) {
	SetIntraOpThreads(1)
	WithIntraOpThreads(4, func() {
		if IntraOpThreads() != 4 {
			t.Fatal("WithIntraOpThreads did not apply")
		}
	})
	if IntraOpThreads() != 1 {
		t.Fatal("WithIntraOpThreads did not restore")
	}
}

// Property: Broadcast is symmetric.
func TestBroadcastSymmetric(t *testing.T) {
	f := func(a0, b0 uint8) bool {
		a := Shape{int(a0%4) + 1, 1}
		b := Shape{1, int(b0%4) + 1}
		ab, err1 := Broadcast(a, b)
		ba, err2 := Broadcast(b, a)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		return err1 != nil || ab.Equal(ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Reshape preserves element count and data identity.
func TestReshapeRoundTrip(t *testing.T) {
	f := func(n0 uint8) bool {
		n := int(n0%16) + 1
		tt := Zeros(n, 3)
		r, err := tt.Reshape(3, n)
		if err != nil {
			return false
		}
		back, err := r.Reshape(n, 3)
		if err != nil {
			return false
		}
		return back.Numel() == tt.Numel() && back.Shape().Equal(tt.Shape())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
