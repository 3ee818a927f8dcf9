package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// refPoolRow is the skip-out-of-bounds pooling row: every tap of every
// window is tested against both bounds of the row. It shares no window
// code with PoolRow.
func refPoolRow(o, rows []float32, nr, w, k, s, pad, area int, avg bool) {
	for ox := range o {
		best, sum, taps := float32(-math.MaxFloat32), float32(0), 0
		for r := 0; r < nr; r++ {
			for t := 0; t < k; t++ {
				ix := ox*s - pad + t
				if ix < 0 || ix >= w {
					continue
				}
				v := rows[r*w+ix]
				if v > best {
					best = v
				}
				sum += v
				taps++
			}
		}
		if !avg {
			o[ox] = best
			continue
		}
		div := area
		if div == 0 {
			div = max(taps, 1)
		}
		o[ox] = sum / float32(div)
	}
}

// poolValues draws n values of which about one in three is NaN, ±0, ±Inf,
// −MaxFloat32 or a repeat of its left neighbour, so max meets ties, signed
// zeros, NaN and taps equal to its seed, and sums meet Inf − Inf.
func poolValues(pick *rand.Rand, n int) []float32 {
	special := []float32{
		float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), -math.MaxFloat32,
	}
	d := make([]float32, n)
	for i := range d {
		switch p := pick.Intn(20); {
		case p < len(special):
			d[i] = special[p]
		case p == len(special) && i > 0:
			d[i] = d[i-1]
		default:
			d[i] = float32(pick.NormFloat64())
		}
	}
	return d
}

// TestPoolRowProperty holds PoolRow, on the AVX2 blocks and on the
// portable loop, to the skip-out-of-bounds reference bit for bit: rows 1
// to 40 wide, so every tail and block edge is hit; windows of 1 to 5 taps,
// strides 1 to 3, pads 0 to k on each side (a pad of k puts a whole window
// in the padding) and 0 to 3 input rows (0: every window lies in the
// padding above or below); max, and average with and without
// count_include_pad. Inputs hold NaN, ±0, ±Inf and −MaxFloat32.
func TestPoolRowProperty(t *testing.T) {
	forEachMicro(t, func(t *testing.T) {
		pick := rand.New(rand.NewSource(35))
		cases := 0
		for w := 1; w <= 40; w++ {
			for k := 1; k <= 5; k++ {
				for s := 1; s <= 3; s++ {
					for pl := 0; pl <= k; pl++ {
						pr, nr := pick.Intn(k+1), pick.Intn(4)
						ow := (w+pl+pr-k)/s + 1
						if ow <= 0 {
							continue
						}
						rows := poolValues(pick, nr*w)
						for _, area := range []int{-1, 0, 3 * k} {
							avg := area >= 0
							got, want := make([]float32, ow), make([]float32, ow)
							PoolRow(got, rows, w, k, s, pl, max(area, 0), avg)
							refPoolRow(want, rows, nr, w, k, s, pl, max(area, 0), avg)
							for i := range got {
								if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
									t.Fatalf("w=%d k=%d s=%d pads=%d,%d rows=%d area=%d avg=%v: o[%d] = %v (%#x), want %v (%#x); rows %v",
										w, k, s, pl, pr, nr, area, avg, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]), rows)
								}
							}
							cases++
						}
					}
				}
			}
		}
		t.Logf("%d rows", cases)
	})
}

// refDepthwiseRow is the skip-out-of-bounds depthwise Conv row: every tap
// of every window is tested against both bounds of the row, and the
// products are added to the bias in row-major order. It shares no window
// code with DepthwiseRow.
func refDepthwiseRow(o, rows, wts []float32, nr, w, k, s, pad int, bias float32) {
	for ox := range o {
		acc := bias
		for r := 0; r < nr; r++ {
			for t := 0; t < k; t++ {
				ix := ox*s - pad + t
				if ix < 0 || ix >= w {
					continue
				}
				acc += rows[r*w+ix] * wts[r*k+t]
			}
		}
		o[ox] = acc
	}
}

// TestDepthwiseRowProperty holds DepthwiseRow to the skip-out-of-bounds
// reference bit for bit: rows 1 to 40 wide, kernels of 1 to 7 taps,
// strides 1 to 3, pads 0 to k+2 on each side (from a pad of k on, whole
// windows lie in the padding) and 0 to 3 input rows (0: every window lies in the
// padding above or below). Taps, weights and the bias hold NaN, ±0, ±Inf
// and −MaxFloat32.
func TestDepthwiseRowProperty(t *testing.T) {
	pick := rand.New(rand.NewSource(39))
	cases := 0
	for w := 1; w <= 40; w++ {
		for k := 1; k <= 7; k++ {
			for s := 1; s <= 3; s++ {
				for pl := 0; pl <= k+2; pl++ {
					pr, nr := pick.Intn(k+3), pick.Intn(4)
					ow := (w+pl+pr-k)/s + 1
					if ow <= 0 {
						continue
					}
					rows, wts, bias := poolValues(pick, nr*w), poolValues(pick, nr*k), poolValues(pick, 1)[0]
					got, want := make([]float32, ow), make([]float32, ow)
					DepthwiseRow(got, rows, wts, w, k, s, pl, bias)
					refDepthwiseRow(want, rows, wts, nr, w, k, s, pl, bias)
					for i := range got {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("w=%d k=%d s=%d pads=%d,%d rows=%d bias=%v: o[%d] = %v (%#x), want %v (%#x); rows %v weights %v",
								w, k, s, pl, pr, nr, bias, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]), rows, wts)
						}
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d rows", cases)
}
