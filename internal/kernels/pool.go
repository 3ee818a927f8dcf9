package kernels

// Pooling windows. One output row of a MaxPool or AveragePool is a run of
// windows whose starts lie s apart in the input. Inside the row, window j
// covers the taps x[r*w + j*s + t] for r < rows and t < k, where w is the
// input's row stride. Both reductions visit the taps in that row-major
// order, so the result of every window is fixed bit for bit; on amd64 with
// AVX2, poolBlocks (pool_amd64.go) computes eight windows per instruction
// in that same order.

// PoolRow sets o, one output row of a MaxPool (avg false) or AveragePool,
// from rows: the input rows its windows span once clamped to the input,
// each w wide. Window ox covers columns [ox·s−pad, ox·s−pad+k), and its
// taps are those inside [0, w). A max starts from −MaxFloat32; an average
// divides the sum by area, or when area is 0 by the number of taps (1 when
// there are none). s must be at least 1.
//
// The interior outputs, whose windows lie wholly inside the row, are
// reduced in one call; each edge output is a call of its own, with its
// window clamped to the row.
func PoolRow(o, rows []float32, w, k, s, pad, area int, avg bool) {
	nr := 0
	if w > 0 {
		nr = len(rows) / w
	}
	lo, hi := interior(len(o), w, k, s, pad)
	for ox := 0; ox < len(o); ox++ {
		x0 := min(max(ox*s-pad, 0), w)
		x1 := max(min(ox*s-pad+k, w), x0)
		end := ox + 1
		if ox == lo {
			end = hi
		}
		x := rows[min(x0, len(rows)):]
		if avg {
			div := area
			if div == 0 {
				div = max(nr*(x1-x0), 1)
			}
			avgWindows(o[ox:end], x, nr, w, x1-x0, s, float32(div))
		} else {
			maxWindows(o[ox:end], x, nr, w, x1-x0, s)
		}
		ox = end - 1
	}
}

// interior returns the outputs [lo, hi) of a row of n whose windows lie
// wholly inside its w columns, or -1, -1 when there are none.
func interior(n, w, k, s, pad int) (lo, hi int) {
	lo = max(pad+s-1, 0) / s // the first window starting at or after column 0
	if end := w - k + pad; end >= 0 {
		hi = min(end/s+1, n) // past the last window ending at or before column w
	}
	if hi <= lo {
		return -1, -1
	}
	return lo, hi
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
