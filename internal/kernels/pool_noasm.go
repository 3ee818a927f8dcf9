//go:build !amd64 || race

package kernels

// poolBlocks declines off amd64, and under the race detector, so the
// window reducers run their portable loops. When a NaN tap meets a NaN
// sum, the scalar `sum += tap` of a normal build keeps the sum's NaN, as
// the AVX2 blocks do; a race build allocates the add's registers the
// other way round (the tests' reference loops keep the tap's NaN there),
// so the blocks would differ from the scalar code in NaN bits. The
// portable loop agrees with the references in both builds.
func poolBlocks(o, x []float32, rows, w, k, s int, avg bool, div float32) bool { return false }
