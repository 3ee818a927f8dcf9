package kernels

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// maxDiff returns the largest absolute element-wise difference.
func maxDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// TestGemmMatchesNaive sweeps shapes around the tile and panel boundaries
// — tails in every dimension, degenerate extents, sizes spanning several
// KC panels — and cross-checks the blocked kernel against the naive
// reference for every transpose combination.
func TestGemmMatchesNaive(t *testing.T) {
	r := tensor.NewRNG(41)
	dims := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {3, 17, 5}, {4, 16, 8},
		{5, 15, 300}, {7, 31, 33}, {8, 64, 257}, {13, 1, 9},
		{16, 16, 16}, {33, 47, 19}, {65, 129, 70}, {100, 5, 513},
	}
	for _, d := range dims {
		m, n, k := d[0], d[1], d[2]
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				for _, alpha := range []float32{1, 0.5} {
					var a, b *tensor.Tensor
					lda, ldb := k, n
					if transA {
						a = r.RandTensor(k, m)
						lda = m
					} else {
						a = r.RandTensor(m, k)
					}
					if transB {
						b = r.RandTensor(n, k)
						ldb = k
					} else {
						b = r.RandTensor(k, n)
					}
					got := make([]float32, m*n)
					want := make([]float32, m*n)
					Gemm(alpha, m, n, k, a.Data(), lda, transA, b.Data(), ldb, transB, got, nil)
					NaiveGemm(alpha, m, n, k, a.Data(), lda, transA, b.Data(), ldb, transB, want)
					if d := maxDiff(got, want); d > 1e-4 {
						t.Errorf("m=%d n=%d k=%d transA=%v transB=%v alpha=%v: max diff %g",
							m, n, k, transA, transB, alpha, d)
					}
				}
			}
		}
	}
}

// TestGemmAccumulates verifies the += contract: a non-zero C is added to,
// not overwritten, so KC panels and repeated calls compose.
func TestGemmAccumulates(t *testing.T) {
	r := tensor.NewRNG(5)
	m, n, k := 9, 21, 30
	a := r.RandTensor(m, k)
	b := r.RandTensor(k, n)
	got := make([]float32, m*n)
	want := make([]float32, m*n)
	for i := range got {
		got[i] = float32(i % 7)
		want[i] = float32(i % 7)
	}
	Gemm(1, m, n, k, a.Data(), k, false, b.Data(), n, false, got, nil)
	NaiveGemm(1, m, n, k, a.Data(), k, false, b.Data(), n, false, want)
	if d := maxDiff(got, want); d > 1e-4 {
		t.Errorf("accumulate mismatch: %g", d)
	}
}

// TestPrepackedMatchesCallTime: compile-time packed operands must be
// bit-identical to call-time packing (same layout code, same compute).
func TestPrepackedMatchesCallTime(t *testing.T) {
	r := tensor.NewRNG(17)
	m, n, k := 19, 45, 77
	a := r.RandTensor(m, k)
	b := r.RandTensor(k, n)

	callTime := make([]float32, m*n)
	Gemm(1, m, n, k, a.Data(), k, false, b.Data(), n, false, callTime, nil)

	pb := PrepackB(b.Data(), k, n, n, false)
	viaB := make([]float32, m*n)
	GemmPackedB(1, m, a.Data(), k, false, pb, viaB, nil)

	pa := PrepackA(a.Data(), m, k, k, false)
	viaA := make([]float32, m*n)
	GemmPackedA(pa, n, b.Data(), n, false, viaA, nil)

	for i := range callTime {
		if callTime[i] != viaB[i] {
			t.Fatalf("PackedB path diverges at %d: %v vs %v", i, viaB[i], callTime[i])
		}
		if callTime[i] != viaA[i] {
			t.Fatalf("PackedA path diverges at %d: %v vs %v", i, viaA[i], callTime[i])
		}
	}
	if pb.Bytes() != 4*int64(PackedBSize(k, n)) || pa.Bytes() != 4*int64(PackedASize(m, k)) {
		t.Error("packed Bytes() disagrees with Packed*Size")
	}
}

// TestGemmParallelMatchesSerial: the row-panel parallel split must not
// change results bit-for-bit (each C element's summation order is fixed).
func TestGemmParallelMatchesSerial(t *testing.T) {
	r := tensor.NewRNG(23)
	m, n, k := 300, 37, 150
	a := r.RandTensor(m, k)
	b := r.RandTensor(k, n)
	serial := make([]float32, m*n)
	parallel := make([]float32, m*n)
	tensor.WithIntraOpThreads(1, func() {
		Gemm(1, m, n, k, a.Data(), k, false, b.Data(), n, false, serial, nil)
	})
	tensor.WithIntraOpThreads(8, func() {
		Gemm(1, m, n, k, a.Data(), k, false, b.Data(), n, false, parallel, nil)
	})
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("parallel GEMM diverges at %d", i)
		}
	}
}

// TestMicroGoMatchesActive cross-checks the pure-Go microkernel against
// whatever kernel dispatch selected (the AVX2 assembly on capable amd64
// hosts; trivially passes where the Go kernel is already active).
func TestMicroGoMatchesActive(t *testing.T) {
	t.Logf("active microkernel: %s", MicroKernelName())
	r := tensor.NewRNG(3)
	for _, kc := range []int{1, 2, 7, 64, 256} {
		a := r.RandTensor(kc * MR)
		b := r.RandTensor(kc * NR)
		got := make([]float32, MR*NR)
		want := make([]float32, MR*NR)
		microKernel(kc, &a.Data()[0], &b.Data()[0], &got[0], NR)
		microGo(kc, &a.Data()[0], &b.Data()[0], &want[0], NR)
		if d := maxDiff(got, want); d > 1e-5 {
			t.Errorf("kc=%d: active microkernel vs Go reference: max diff %g", kc, d)
		}
	}
}

// TestGemmArenaScratch: call-time packing must draw from the allocator and
// return everything, leaving the arena balanced for the next run.
func TestGemmArenaScratch(t *testing.T) {
	ar := tensor.NewArena()
	r := tensor.NewRNG(9)
	m, n, k := 33, 65, 129
	a := r.RandTensor(m, k)
	b := r.RandTensor(k, n)
	c := make([]float32, m*n)
	Gemm(1, m, n, k, a.Data(), k, false, b.Data(), n, false, c, ar)
	st := ar.Stats().Snapshot()
	if st.Gets == 0 {
		t.Fatal("GEMM scratch bypassed the allocator")
	}
	if st.Gets != st.Puts {
		t.Fatalf("scratch leak: %d gets vs %d puts", st.Gets, st.Puts)
	}
	// Steady state: a second identical call must not grow the heap.
	before := ar.Stats().Snapshot().AllocBytes
	clear(c)
	Gemm(1, m, n, k, a.Data(), k, false, b.Data(), n, false, c, ar)
	if after := ar.Stats().Snapshot().AllocBytes; after != before {
		t.Fatalf("second run allocated fresh heap: %d -> %d bytes", before, after)
	}
}

// TestHotPathAllocFree pins the serving contract: with a warm arena, a
// prepacked GEMM performs zero heap allocations per call — including edge
// tiles, whose stack scratch must not escape through the microkernel
// dispatch (a func-value dispatch would heap-allocate it every call).
func TestHotPathAllocFree(t *testing.T) {
	r := tensor.NewRNG(61)
	m, n, k := 37, 13, 300 // tails in every dimension
	a := r.RandTensor(m, k)
	b := r.RandTensor(k, n)
	pb := PrepackB(b.Data(), k, n, n, false)
	c := make([]float32, m*n)
	ar := tensor.NewArena()
	GemmPackedB(1, m, a.Data(), k, false, pb, c, ar) // warm the arena
	allocs := testing.AllocsPerRun(20, func() {
		GemmPackedB(1, m, a.Data(), k, false, pb, c, ar)
	})
	if allocs != 0 {
		t.Errorf("warm prepacked GEMM allocates %v times per call, want 0", allocs)
	}
}

// refIm2col is the obviously-correct patch-matrix builder.
func refIm2col(x []float32, c, h, w, kh, kw, sh, sw, pt, pl, oh, ow int) []float32 {
	col := make([]float32, c*kh*kw*oh*ow)
	n := oh * ow
	for ci := 0; ci < c; ci++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				r := (ci*kh+ky)*kw + kx
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy := oy*sh - pt + ky
						ix := ox*sw - pl + kx
						var v float32
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							v = x[(ci*h+iy)*w+ix]
						}
						col[r*n+oy*ow+ox] = v
					}
				}
			}
		}
	}
	return col
}

func TestIm2colMatchesReference(t *testing.T) {
	r := tensor.NewRNG(31)
	cases := []struct{ c, h, w, kh, kw, sh, sw, pt, pl int }{
		{1, 5, 5, 3, 3, 1, 1, 1, 1},
		{3, 8, 6, 3, 3, 2, 2, 1, 1},
		{2, 7, 7, 5, 5, 1, 1, 2, 2},
		{4, 9, 11, 1, 1, 1, 1, 0, 0},
		{2, 6, 6, 3, 3, 3, 3, 0, 0},
		{1, 4, 4, 3, 3, 1, 1, 0, 2}, // asymmetric: left pad only
		{2, 10, 3, 7, 3, 2, 1, 3, 1},
		{2, 1, 1, 5, 5, 1, 1, 2, 2}, // kernel larger than input: all-pad fringes
	}
	for _, tc := range cases {
		x := r.RandTensor(tc.c, tc.h, tc.w)
		oh := (tc.h+2*tc.pt-tc.kh)/tc.sh + 1
		ow := (tc.w+2*tc.pl-tc.kw)/tc.sw + 1
		if oh <= 0 || ow <= 0 {
			t.Fatalf("bad case %+v", tc)
		}
		want := refIm2col(x.Data(), tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.sh, tc.sw, tc.pt, tc.pl, oh, ow)
		got := make([]float32, len(want))
		for i := range got {
			got[i] = -99 // poison: every element must be written
		}
		Im2col(got, x.Data(), tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.sh, tc.sw, tc.pt, tc.pl, oh, ow)
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%+v: col[%d] = %v, want %v", tc, i, got[i], want[i])
				break
			}
		}
	}
}

// denormals are subnormal float32 values of both signs, down to the
// smallest.
var denormals = []float32{1e-40, -1e-40, 1.4e-45, -1.4e-45, 1.1754942e-38, -3e-39}

// TestGemmTransposeDenormalProperty checks transposed packing (packAInto
// and PackBInto with trans) and subnormal operands on every microkernel
// the CPU supports, through each entry point: call-time packing, a
// prepacked A and a prepacked B. Operands are stored with leading
// dimensions wider than they need. Random operands with subnormals mixed
// in must match NaiveGemm within 1e-4; a subnormal A times the identity
// must come back bit for bit, so neither path flushes subnormals to zero.
func TestGemmTransposeDenormalProperty(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{1, 1, 1},
		{MR + 1, NR + 3, 7}, // edge tiles
		{5, 17, 2},
		{2*MR + 3, 2*NR + 5, KC + 9}, // two K panels
	}
	// operand stores the logical rows×cols matrix v with leading dimension
	// ld, transposed when trans.
	operand := func(v []float32, rows, cols int, trans bool) ([]float32, int) {
		if trans {
			rows, cols = cols, rows
		}
		ld := cols + 3
		out := make([]float32, rows*ld)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if trans {
					out[i*ld+j] = v[j*rows+i]
				} else {
					out[i*ld+j] = v[i*cols+j]
				}
			}
		}
		return out, ld
	}
	forEachMicro(t, func(t *testing.T) {
		r := tensor.NewRNG(11)
		for _, sh := range shapes {
			m, n, k := sh.m, sh.n, sh.k
			a, b := r.RandTensor(m, k).Data(), r.RandTensor(k, n).Data()
			for i := range a {
				if i%4 == 1 {
					a[i] = denormals[i%len(denormals)]
				}
			}
			for i := range b {
				if i%5 == 2 {
					b[i] = denormals[i%len(denormals)]
				}
			}
			ident := make([]float32, k*k)
			for i := 0; i < k; i++ {
				ident[i*k+i] = 1
			}
			sub := make([]float32, m*k)
			for i := range sub {
				sub[i] = denormals[i%len(denormals)]
			}
			for _, transA := range []bool{false, true} {
				for _, transB := range []bool{false, true} {
					check := func(what string, a, b []float32, n int, exact bool) {
						want := make([]float32, m*n)
						NaiveGemm(1, m, n, k, a, k, false, b, n, false, want)
						as, lda := operand(a, m, k, transA)
						bs, ldb := operand(b, k, n, transB)
						for _, run := range []struct {
							name string
							f    func(c []float32)
						}{
							{"GemmEpi", func(c []float32) { GemmEpi(1, m, n, k, as, lda, transA, bs, ldb, transB, c, n, nil, Epilogue{}) }},
							{"GemmPackedAEpi", func(c []float32) {
								GemmPackedAEpi(PrepackA(as, m, k, lda, transA), n, bs, ldb, transB, c, n, nil, Epilogue{})
							}},
							{"GemmPackedBEpi", func(c []float32) {
								GemmPackedBEpi(1, m, as, lda, transA, PrepackB(bs, k, n, ldb, transB), c, n, nil, Epilogue{})
							}},
						} {
							got := make([]float32, m*n)
							run.f(got)
							for i := range got {
								if !sameValue(got[i], want[i], exact) {
									t.Fatalf("%s %s m=%d n=%d k=%d transA=%v transB=%v: C[%d] = %v, want %v",
										what, run.name, m, n, k, transA, transB, i, got[i], want[i])
								}
							}
						}
					}
					check("random", a, b, n, false)
					check("subnormal×I", sub, ident, k, true)
				}
			}
		}
	})
}
