package kernels

import "repro/internal/tensor"

// Gemm computes C += alpha·op(A)·op(B) for row-major f32 matrices, packing
// both operands at call time into scratch drawn from alc (nil = heap; the
// executor passes the run's arena so steady-state serving recycles the
// scratch). op(A) is m×k stored with leading dimension lda, transposed
// when transA; op(B) is k×n with ldb/transB; C is m×n with leading
// dimension n and must be initialized (outputs are zero-filled by the
// tensor constructors, so += realizes a plain product).
func Gemm(alpha float32, m, n, k int, a []float32, lda int, transA bool, b []float32, ldb int, transB bool, c []float32, alc tensor.Allocator) {
	GemmEpi(alpha, m, n, k, a, lda, transA, b, ldb, transB, c, n, alc, Epilogue{})
}

// GemmEpi is Gemm with C's leading dimension ldc (>= n) and a fused
// writeback epilogue: epi is applied to every C element exactly once,
// after its final K panel has accumulated, while the tile is still
// cache-hot. Elements of C between a row's n-th column and the next row
// are neither read nor written. An Epilogue zero value is a plain Gemm.
func GemmEpi(alpha float32, m, n, k int, a []float32, lda int, transA bool, b []float32, ldb int, transB bool, c []float32, ldc int, alc tensor.Allocator, epi Epilogue) {
	if m <= 0 || n <= 0 {
		return
	}
	if k <= 0 {
		finishRows(m, n, c, ldc, epi)
		return
	}
	bbuf := tensor.AllocUninit(alc, PackedBSize(k, n))
	PackBInto(bbuf, b, k, n, ldb, transB)
	GemmBPackedEpi(alpha, m, n, k, a, lda, transA, bbuf, c, ldc, alc, epi)
	tensor.Free(alc, bbuf)
}

// GemmBPackedEpi is GemmEpi with the right operand already in packed
// layout (PackBInto order): a caller-owned scratch packing reused across
// several products (batched MatMul broadcasting one B).
func GemmBPackedEpi(alpha float32, m, n, k int, a []float32, lda int, transA bool, bpacked []float32, c []float32, ldc int, alc tensor.Allocator, epi Epilogue) {
	if m <= 0 || n <= 0 {
		return
	}
	if k <= 0 {
		finishRows(m, n, c, ldc, epi)
		return
	}
	abuf := tensor.AllocUninit(alc, PackedASize(m, k))
	// Fold alpha into the A packing: the microkernel then needs no scale.
	packAInto(abuf, a, m, k, lda, transA, alpha)
	gemmCore(m, n, k, abuf, bpacked, c, ldc, epi)
	tensor.Free(alc, abuf)
}

// GemmPackedB is Gemm against a compile-time PackedB.
func GemmPackedB(alpha float32, m int, a []float32, lda int, transA bool, pb *PackedB, c []float32, alc tensor.Allocator) {
	GemmBPackedEpi(alpha, m, pb.N, pb.K, a, lda, transA, pb.buf, c, pb.N, alc, Epilogue{})
}

// GemmPackedBEpi is GemmPackedB with C's leading dimension and a fused
// writeback epilogue.
func GemmPackedBEpi(alpha float32, m int, a []float32, lda int, transA bool, pb *PackedB, c []float32, ldc int, alc tensor.Allocator, epi Epilogue) {
	GemmBPackedEpi(alpha, m, pb.N, pb.K, a, lda, transA, pb.buf, c, ldc, alc, epi)
}

// GemmPackedA computes C += pa·op(B) against a compile-time PackedA (Conv
// filters), packing only the call-varying right operand (the im2col patch
// matrix) into scratch from alc.
func GemmPackedA(pa *PackedA, n int, b []float32, ldb int, transB bool, c []float32, alc tensor.Allocator) {
	GemmPackedAEpi(pa, n, b, ldb, transB, c, n, alc, Epilogue{})
}

// GemmPackedAEpi is GemmPackedA with C's leading dimension and a fused
// writeback epilogue.
func GemmPackedAEpi(pa *PackedA, n int, b []float32, ldb int, transB bool, c []float32, ldc int, alc tensor.Allocator, epi Epilogue) {
	if pa.M <= 0 || n <= 0 {
		return
	}
	if pa.K <= 0 {
		finishRows(pa.M, n, c, ldc, epi)
		return
	}
	bbuf := tensor.AllocUninit(alc, PackedBSize(pa.K, n))
	PackBInto(bbuf, b, pa.K, n, ldb, transB)
	gemmCore(pa.M, n, pa.K, pa.buf, bbuf, c, ldc, epi)
	tensor.Free(alc, bbuf)
}

// finishRows applies epi to the m×n matrix C of a degenerate (k = 0)
// product: it contributes nothing, but the bias and the activation still
// apply exactly as the unfused graph would.
func finishRows(m, n int, c []float32, ldc int, epi Epilogue) {
	act := epi.activation()
	for i := 0; i < m; i++ {
		row := c[i*ldc : i*ldc+n]
		if epi.Bias != nil {
			for j, b := range epi.Bias[:n] {
				row[j] += b
			}
		}
		act.apply(row)
	}
}

// gemmCore is the blocked macrokernel: both operands packed, C += Aᵖ·Bᵖ,
// with C's rows ldc elements apart.
//
// Loop structure (GotoBLAS/BLIS, outermost first): C's columns are walked
// in NC blocks (the per-block packed-B working set, NC×KC×4 B, stays
// L3-resident); within a block the K dimension is walked in KC panels,
// accumulating into C so panels compose — each C element still sums in
// plain k order, so results are independent of the blocking; within a
// panel, row strips are distributed across intra-op workers in MC-row
// chunks (each worker's A sub-panel stays L2-resident), and each worker
// keeps one NR-wide B strip L1-resident while it sweeps the chunk's row
// strips. Edge tiles run the same microkernel into a scratch tile and
// mask the writeback, so the hot path has no bounds branches.
//
// The epilogue is applied inside the final K panel's writeback — each C
// element is finished exactly once, right after its last accumulation, so
// the bias and the activation cost no extra memory pass.
func gemmCore(m, n, k int, apacked, bpacked []float32, c []float32, ldc int, epi Epilogue) {
	mStrips := (m + MR - 1) / MR
	nStrips := (n + NR - 1) / NR
	mPad := mStrips * MR
	nPad := nStrips * NR
	// Single-worker runs (the serving default: one lane per core, intra-op
	// parallelism off) call the panel kernel directly — no closure is
	// created, keeping steady-state inference allocation-flat.
	serial := tensor.IntraOpThreads() == 1 || mStrips <= MC/MR
	for jc := 0; jc < nStrips; jc += NC / NR {
		// Read-only rebind: capturing the written loop variable itself
		// would box it on the heap every iteration (see the alloc-free
		// hot-path contract pinned by TestHotPathAllocFree).
		jcLo, jcHi := jc, minInt(jc+NC/NR, nStrips)
		for p0 := 0; p0 < k; p0 += KC {
			kc := minInt(KC, k-p0)
			ap := apacked[mPad*p0:]
			bp := bpacked[nPad*p0:]
			var act activation
			var bias []float32
			if p0+kc == k {
				act, bias = epi.activation(), epi.Bias
			}
			if serial {
				gemmPanel(m, n, kc, ap, bp, c, ldc, 0, mStrips, jcLo, jcHi, act, bias)
			} else {
				tensor.ParallelRange(mStrips, MC/MR, func(lo, hi int) {
					gemmPanel(m, n, kc, ap, bp, c, ldc, lo, hi, jcLo, jcHi, act, bias)
				})
			}
		}
	}
}

// gemmPanel runs one KC panel's macrokernel over the row strips
// [loStrip, hiStrip) and the column strips [loJ, hiJ) (one NC block),
// holding each NR-wide B strip L1-resident while it sweeps the rows. The
// final K panel is passed the epilogue as its activation and bias (an
// earlier panel gets neither); each C tile is finished right after its
// writeback: the tile's columns of the bias, then the activation, inline
// (a helper call per tile row measured slower on small-K Conv GEMMs).
func gemmPanel(m, n, kc int, apacked, bpacked, c []float32, ldc, loStrip, hiStrip, loJ, hiJ int, act activation, bias []float32) {
	// Edge tiles compute into this stack tile and mask the writeback. It
	// must not escape — microKernel is a direct-dispatch call chain whose
	// pointer parameters provably don't leak (see micro.go), so taking
	// &tmp[0] is free of heap traffic.
	var tmp [MR * NR]float32
	fin := act.kind != EpiNone || bias != nil
	for jr := loJ; jr < hiJ; jr++ {
		bs := bpacked[jr*NR*kc:]
		j0 := jr * NR
		cols := minInt(NR, n-j0)
		var colBias []float32
		if bias != nil {
			colBias = bias[j0 : j0+cols]
		}
		for ir := loStrip; ir < hiStrip; ir++ {
			as := apacked[ir*MR*kc:]
			i0 := ir * MR
			rows := minInt(MR, m-i0)
			if rows == MR && cols == NR {
				microKernel(kc, &as[0], &bs[0], &c[i0*ldc+j0], ldc)
			} else {
				clear(tmp[:])
				microKernel(kc, &as[0], &bs[0], &tmp[0], NR)
				for i := 0; i < rows; i++ {
					cr := c[(i0+i)*ldc+j0 : (i0+i)*ldc+j0+cols]
					for j, v := range tmp[i*NR : i*NR+cols] {
						cr[j] += v
					}
				}
			}
			if fin {
				for i := 0; i < rows; i++ {
					row := c[(i0+i)*ldc+j0 : (i0+i)*ldc+j0+cols]
					if colBias != nil {
						for j, b := range colBias {
							row[j] += b
						}
					}
					act.apply(row)
				}
			}
		}
	}
}

// NaiveGemm is the retained reference implementation: an unblocked ikj
// product with no data-dependent branches. It anchors the equivalence
// tests and the kernel benchmarks' baseline; nothing on a hot path calls
// it.
func NaiveGemm(alpha float32, m, n, k int, a []float32, lda int, transA bool, b []float32, ldb int, transB bool, c []float32) {
	for i := 0; i < m; i++ {
		row := c[i*n : i*n+n]
		for p := 0; p < k; p++ {
			var av float32
			if transA {
				av = a[p*lda+i]
			} else {
				av = a[i*lda+p]
			}
			av *= alpha
			if transB {
				for j := 0; j < n; j++ {
					row[j] += av * b[j*ldb+p]
				}
			} else {
				bp := b[p*ldb : p*ldb+n]
				for j, bv := range bp {
					row[j] += av * bv
				}
			}
		}
	}
}
