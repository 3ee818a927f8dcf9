// Package kernels is the CPU kernel core behind the GEMM-shaped operators
// (MatMul, Gemm, Conv-as-im2col): a cache-blocked, register-tiled f32 GEMM
// in the BLIS/GotoBLAS style. Operands are repacked into panel layouts so
// the microkernel streams contiguous memory, the K dimension is blocked
// into KC panels that fit L2, and row panels are distributed across
// intra-op workers with tensor.ParallelRange.
//
// Constant operands (model weights) can be packed once at compile time —
// PrepackA/PrepackB — so steady-state inference pays only the microkernel;
// call-time packing draws its scratch from the run's allocator (the arena
// during serving), keeping the hot path allocation-flat.
//
// The microkernel computes an MR×NR tile of C with all accumulators in
// registers. On amd64 with AVX2+FMA it is hand-written assembly (4×16 tile,
// eight YMM accumulators); everywhere else a pure-Go fallback with
// bounds-check-eliminating slice patterns is used. Both consume the same
// packed layouts and sum in the same order; they differ only in FMA
// rounding, which the equivalence tests bound well under 1e-4.
//
// The package also holds the pooling row (pool.go): MaxPool and
// AveragePool windows, eight outputs per AVX2 instruction where the CPU
// has it (outside race builds), bit-identical to the portable loop.
package kernels

// Blocking parameters of the GEMM core. The microkernel updates an MR×NR
// tile of C; KC is the depth of one packed panel (an MR×KC A-strip is 4 KB
// and an NR×KC B-strip 16 KB, both L1-resident); MC bounds the rows of A
// one worker streams per panel (MC×KC×4 B ≈ 128 KB, L2-resident) and is
// also the parallel grain; NC is the outermost column blocking — the
// per-block packed-B working set (NC×KC×4 B ≈ 1 MB) stays L3-resident
// across the whole K sweep of that block.
const (
	MR = 4
	NR = 16
	KC = 256
	MC = 128
	NC = 1024
)

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ceilMul rounds x up to a multiple of m.
func ceilMul(x, m int) int { return (x + m - 1) / m * m }
