//go:build amd64 && !race

package kernels

// poolBlocks reduces every window of o with the AVX2 routines, eight
// windows per block, and reports whether it did: it declines without AVX2,
// for fewer than eight windows, for windows without taps (tapRows passes
// rows 0 then), and for strides other than 1 and 2, whose taps do not
// fill a register from one or two loads. When
// len(o) is not a multiple of 8, the last block overlaps the one before
// it; each output depends on its own window alone, so the outputs the two
// share are written twice with the same bits.
func poolBlocks(o, x []float32, rows, w, k, s int, avg bool, div float32) bool {
	n := len(o)
	if !useAVX2 || n < 8 || rows == 0 || (s != 1 && s != 2) {
		return false
	}
	poolAVX2(o, x, n/8, rows, w, k, s, avg, div)
	if t := n - 8; n%8 != 0 {
		poolAVX2(o[t:], x[t*s:], 1, rows, w, k, s, avg, div)
	}
	return true
}

// poolAVX2 runs blocks blocks of 8 windows from the starts of o and x.
func poolAVX2(o, x []float32, blocks, rows, w, k, s int, avg bool, div float32) {
	if avg {
		avgPoolAVX2(&o[0], &x[0], blocks, rows, w, k, s, div)
		return
	}
	maxPoolAVX2(&o[0], &x[0], blocks, rows, w, k, s)
}

// maxPoolAVX2 sets blocks·8 outputs to their windows' max (pool_amd64.s):
// VMAXPS takes the tap as its first source and the running max as its
// second, which is exactly `if tap > max { max = tap }`.
//
//go:noescape
func maxPoolAVX2(o, x *float32, blocks, rows, w, k, s int)

// avgPoolAVX2 sets blocks·8 outputs to their windows' sum divided by div
// (pool_amd64.s), adding each tap to the running sum as the scalar loop
// does.
//
//go:noescape
func avgPoolAVX2(o, x *float32, blocks, rows, w, k, s int, div float32)
