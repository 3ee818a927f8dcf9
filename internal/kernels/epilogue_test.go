package kernels

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// refEpilogue mirrors Epilogue.Val in plain float64-free code for the
// reference results.
func refEpilogue(epi Epilogue, v float32) float32 { return epi.Val(v) }

// TestGemmEpilogueEquivalence checks that the fused writeback epilogue
// computes exactly activation(naive GEMM) across tile-edge shapes, both
// packed-operand entry points, and every epilogue kind. K spans multiple
// KC panels in the large case so the "apply only on the final panel" rule
// is exercised.
func TestGemmEpilogueEquivalence(t *testing.T) {
	r := tensor.NewRNG(11)
	epis := []Epilogue{
		{Kind: EpiRelu},
		{Kind: EpiLeakyRelu, Alpha: 0.1},
		{Kind: EpiClip, Lo: -0.5, Hi: 0.5},
	}
	shapes := []struct{ m, n, k int }{
		{1, 1, 1},
		{3, 5, 7},
		{MR, NR, KC},
		{MR + 1, NR + 3, KC + 9}, // edge tiles + second K panel
		{37, 61, KC*2 + 5},       // three K panels
	}
	for _, sh := range shapes {
		a := r.RandTensor(sh.m, sh.k).Data()
		b := r.RandTensor(sh.k, sh.n).Data()
		for _, epi := range epis {
			want := make([]float32, sh.m*sh.n)
			NaiveGemm(1, sh.m, sh.n, sh.k, a, sh.k, false, b, sh.n, false, want)
			for i, v := range want {
				want[i] = refEpilogue(epi, v)
			}

			got := make([]float32, sh.m*sh.n)
			GemmEpi(1, sh.m, sh.n, sh.k, a, sh.k, false, b, sh.n, false, got, sh.n, nil, epi)
			checkClose(t, "GemmEpi", sh.m, sh.n, sh.k, got, want)

			pb := PrepackB(b, sh.k, sh.n, sh.n, false)
			got2 := make([]float32, sh.m*sh.n)
			GemmPackedBEpi(1, sh.m, a, sh.k, false, pb, got2, sh.n, nil, epi)
			checkClose(t, "GemmPackedBEpi", sh.m, sh.n, sh.k, got2, want)

			pa := PrepackA(a, sh.m, sh.k, sh.k, false)
			got3 := make([]float32, sh.m*sh.n)
			GemmPackedAEpi(pa, sh.n, b, sh.n, false, got3, sh.n, nil, epi)
			checkClose(t, "GemmPackedAEpi", sh.m, sh.n, sh.k, got3, want)
		}
	}
}

// TestGemmEpilogueAppliedOnce seeds C with a bias (the Conv lowering's
// bias-before-GEMM convention) and checks the epilogue sees bias+product,
// exactly once — a double application of Relu is invisible, so Clip with a
// tight window is used to catch it.
func TestGemmEpilogueAppliedOnce(t *testing.T) {
	r := tensor.NewRNG(5)
	m, n, k := 9, 33, KC+3
	a := r.RandTensor(m, k).Data()
	b := r.RandTensor(k, n).Data()
	bias := float32(0.25)
	epi := Epilogue{Kind: EpiClip, Lo: -0.3, Hi: 0.3}

	want := make([]float32, m*n)
	for i := range want {
		want[i] = bias
	}
	NaiveGemm(1, m, n, k, a, k, false, b, n, false, want)
	for i, v := range want {
		want[i] = epi.Val(v)
	}

	got := make([]float32, m*n)
	for i := range got {
		got[i] = bias
	}
	GemmEpi(1, m, n, k, a, k, false, b, n, false, got, n, nil, epi)
	checkClose(t, "bias+epilogue", m, n, k, got, want)
}

func checkClose(t *testing.T, name string, m, n, k int, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-4 {
			t.Fatalf("%s m=%d n=%d k=%d: element %d = %v, want %v", name, m, n, k, i, got[i], want[i])
		}
	}
}

// TestGemmBiasEpilogueProperty checks the bias epilogue and a real ldc on
// every microkernel the CPU supports (the AVX2 assembly and microGo) against
// NaiveGemm followed by a separate bias add and activation: edge tiles,
// K == 0, K > KC, every entry point and every activation, with a bias that
// holds NaN, ±Inf and ±0. C's rows are ldc > n apart, and the gap between
// them must come back untouched.
func TestGemmBiasEpilogueProperty(t *testing.T) {
	epis := []Epilogue{{}, {Kind: EpiRelu}, {Kind: EpiLeakyRelu, Alpha: 0.1}, {Kind: EpiClip, Lo: -0.5, Hi: 0.5}}
	shapes := []struct{ m, n, k int }{
		{1, 1, 1},
		{MR, NR, 3},
		{MR + 1, NR + 3, 7}, // edge tiles
		{5, 17, 0},          // degenerate product: bias and activation only
		{9, 33, KC + 5},     // two K panels
		{2 * MR, 2 * NR, 2*KC + 3},
	}
	forEachMicro(t, func(t *testing.T) {
		r := tensor.NewRNG(29)
		for _, sh := range shapes {
			m, n, k := sh.m, sh.n, sh.k
			ldc := n + 5
			a := r.RandTensor(m, max(k, 1)).Data()
			b := r.RandTensor(max(k, 1), n).Data()
			bias := r.RandTensor(n).Data()
			special := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1))}
			copy(bias, special)
			for _, withBias := range []bool{false, true} {
				for _, epi := range epis {
					if withBias {
						epi.Bias = bias
					}
					want := make([]float32, m*n)
					NaiveGemm(1, m, n, k, a, k, false, b, n, false, want)
					for i := range want {
						if withBias {
							want[i] += bias[i%n]
						}
						want[i] = epi.Val(want[i])
					}
					run := func(name string, f func(c []float32)) {
						c := make([]float32, m*ldc)
						for i := range c {
							if i%ldc >= n {
								c[i] = 1234.5 // the gap between rows
							}
						}
						f(c)
						for i := 0; i < m; i++ {
							for j := 0; j < ldc; j++ {
								got := c[i*ldc+j]
								if j >= n {
									if got != 1234.5 {
										t.Fatalf("%s m=%d n=%d k=%d: wrote the row gap at (%d,%d)", name, m, n, k, i, j)
									}
									continue
								}
								if w := want[i*n+j]; !sameValue(got, w, k == 0) {
									t.Fatalf("%s m=%d n=%d k=%d epi=%v bias=%v: C[%d,%d] = %v, want %v", name, m, n, k, epi.Kind, withBias, i, j, got, w)
								}
							}
						}
					}
					run("GemmEpi", func(c []float32) { GemmEpi(1, m, n, k, a, k, false, b, n, false, c, ldc, nil, epi) })
					if k > 0 {
						pb := PrepackB(b, k, n, n, false)
						run("GemmPackedBEpi", func(c []float32) { GemmPackedBEpi(1, m, a, k, false, pb, c, ldc, nil, epi) })
						pa := PrepackA(a, m, k, k, false)
						run("GemmPackedAEpi", func(c []float32) { GemmPackedAEpi(pa, n, b, n, false, c, ldc, nil, epi) })
					}
				}
			}
		}
	})
}

// sameValue compares a GEMM result with its reference: NaN only against
// NaN, an infinity only against itself, and finite values bit for bit when
// exact (no products were summed) or within 1e-4 otherwise.
func sameValue(got, want float32, exact bool) bool {
	g, w := float64(got), float64(want)
	switch {
	case math.IsNaN(g) || math.IsNaN(w):
		return math.IsNaN(g) && math.IsNaN(w)
	case math.IsInf(g, 0) || math.IsInf(w, 0), exact:
		return math.Float32bits(got) == math.Float32bits(want)
	}
	return math.Abs(g-w) <= 1e-4
}
