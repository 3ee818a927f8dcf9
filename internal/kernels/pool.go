package kernels

// Windowed rows. One output row of a MaxPool, AveragePool or depthwise
// Conv is a run of windows whose starts lie s apart in the input. Inside
// the row, window j covers the taps x[r*w + j*s + t] for r < rows and
// t < k, where w is the input's row stride. Every reduction visits the
// taps in that row-major order, so the result of every window is fixed bit
// for bit; on amd64 with AVX2, poolBlocks (pool_amd64.go) computes eight
// pooling windows per instruction in that same order.

// PoolRow sets o, one output row of a MaxPool (avg false) or AveragePool,
// from rows: the input rows its windows span once clamped to the input,
// each w wide. Window ox covers columns [ox·s−pad, ox·s−pad+k), and its
// taps are those inside [0, w). A max starts from −MaxFloat32; an average
// divides the sum by area, or when area is 0 by the number of taps (1 when
// there are none). s must be at least 1.
func PoolRow(o, rows []float32, w, k, s, pad, area int, avg bool) {
	nr, lo, hi := rowWindows(len(o), len(rows), w, k, s, pad)
	for j := 0; j < len(o); {
		end, x0, taps, _ := span(j, lo, hi, w, k, s, pad)
		x := rows[min(x0, len(rows)):]
		if avg {
			div := area
			if div == 0 {
				div = max(nr*taps, 1)
			}
			avgWindows(o[j:end], x, nr, w, taps, s, float32(div))
		} else {
			maxWindows(o[j:end], x, nr, w, taps, s)
		}
		j = end
	}
}

// DepthwiseRow sets o, one output row of a depthwise Conv, from rows as
// PoolRow reads them, with wts the kernel rows that meet rows, k weights
// each. Each output starts at bias and adds tap·weight over its taps in
// row-major order, the order of a skip-out-of-bounds loop, so it equals
// that loop bit for bit.
func DepthwiseRow(o, rows, wts []float32, w, k, s, pad int, bias float32) {
	nr, lo, hi := rowWindows(len(o), len(rows), w, k, s, pad)
	for j := 0; j < len(o); {
		end, x0, taps, t0 := span(j, lo, hi, w, k, s, pad)
		x := rows[min(x0, len(rows)):]
		for d := range o[j:end] {
			acc := bias
			for r := 0; r < nr; r++ {
				xr := x[d*s+r*w:][:taps]
				for t, wt := range wts[r*k+t0:][:len(xr)] {
					acc += xr[t] * wt
				}
			}
			o[j+d] = acc
		}
		j = end
	}
}

// rowWindows returns the number of w-wide rows in nx values, and the
// outputs [lo, hi) of a row of n whose windows lie wholly inside its w
// columns (hi ≤ lo when there are none).
func rowWindows(n, nx, w, k, s, pad int) (nr, lo, hi int) {
	if w > 0 {
		nr = nx / w
	}
	lo = max(pad+s-1, 0) / s // the first window starting at or after column 0
	hi = lo                  // past the last window ending at or before column w
	if end := w - k + pad; end >= 0 {
		hi = min(end/s+1, n)
	}
	return nr, lo, hi
}

// span returns the outputs [j, end) that reduce as one, the interior
// [lo, hi) when j starts it, else j alone, and window j's part inside the
// row: from column x0, taps wide, starting at kernel column t0.
func span(j, lo, hi, w, k, s, pad int) (end, x0, taps, t0 int) {
	at := j*s - pad
	x0 = min(max(at, 0), w)
	if end = j + 1; j == lo && hi > lo {
		end = hi
	}
	return end, x0, max(min(at+k, w), x0) - x0, min(max(x0-at, 0), k)
}

// maxSeed is where a max starts: -MaxFloat32, so a window of no taps (or of
// -Inf taps only) yields it.
const maxSeed = float32(-3.4028234663852886e38)

// maxWindows sets each o[j] to the largest tap of window j, starting from
// -MaxFloat32: a tap replaces the running max only when it is greater, so
// a NaN tap never wins and of equal taps (+0 and -0) the first stays.
// rows or k of 0 means an empty window.
func maxWindows(o, x []float32, rows, w, k, s int) {
	rows = tapRows(len(o), len(x), rows, w, k, s)
	if poolBlocks(o, x, rows, w, k, s, false, 0) {
		return
	}
	for j := range o {
		best := maxSeed
		for r := j * s; r < j*s+rows*w; r += w {
			for _, v := range x[r : r+k] {
				if v > best {
					best = v
				}
			}
		}
		o[j] = best
	}
}

// avgWindows sets each o[j] to the sum of window j's taps, added to +0 in
// row-major order, divided by div. rows or k of 0 means an empty window.
func avgWindows(o, x []float32, rows, w, k, s int, div float32) {
	rows = tapRows(len(o), len(x), rows, w, k, s)
	if poolBlocks(o, x, rows, w, k, s, true, div) {
		return
	}
	for j := range o {
		var sum float32
		for r := j * s; r < j*s+rows*w; r += w {
			for _, v := range x[r : r+k] {
				sum += v
			}
		}
		o[j] = sum / div
	}
}

// tapRows returns rows, or 0 when the windows have no taps, and panics
// unless x holds every tap: the assembly reads through a bare pointer.
func tapRows(n, nx, rows, w, k, s int) int {
	if w < 0 || s < 0 {
		panic("kernels: negative pooling stride")
	}
	if n == 0 || rows <= 0 || k <= 0 {
		return 0
	}
	if last := (rows-1)*w + (n-1)*s + k; last > nx {
		panic("kernels: pooling windows run past the input")
	}
	return rows
}
