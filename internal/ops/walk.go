package ops

// walkInline is the highest rank whose walk state fits inside the walk; a
// higher rank keeps the same state in one heap slice.
const walkInline = 6

// walk is an odometer over a row-major index space that tracks one element
// offset for each of up to three operands, in the manner of NumPy's nditer.
// newWalk drops extent-1 dimensions and merges adjacent dimensions whose
// strides compose for every operand. The innermost merged dimension is the
// run: each step of the walk covers n elements, operand k starting at
// off[k] and moving step[k] per element. A range of runs [lo, hi) is
// walked as
//
//	for w.seek(lo, hi); w.left > 0; w.next() { … }
//
// so each intra-op worker can take its own range.
type walk struct {
	n, runs int    // elements per run; runs in the whole space
	step    [3]int // each operand's stride inside a run
	base    [3]int // each operand's offset at the origin
	off     [3]int // each operand's offset at the current run
	left    int    // runs still to walk in the range
	// The merged dimensions, innermost (the run) first, as rows of extent,
	// odometer digit and one stride per operand: in inline, or in heap
	// when the rank does not fit.
	rank   int
	heap   [][5]int
	inline [walkInline][5]int
}

// newWalk builds the walk of the index space dims for operands laid out by
// strides, one slice per operand indexed like dims; a nil slice means
// row-major over dims.
func newWalk(dims []int, strides ...[]int) walk {
	var w walk
	if len(dims) > walkInline {
		w.heap = make([][5]int, len(dims))
	}
	rows, numel := w.rows(), 1
	for d := len(dims) - 1; d >= 0; d-- {
		row := [5]int{dims[d]}
		for k, st := range strides {
			if row[2+k] = numel; st != nil {
				row[2+k] = st[d]
			}
		}
		numel *= dims[d]
		switch last := &rows[max(w.rank-1, 0)]; {
		case row[0] == 1:
		case w.rank > 0 && row[2] == last[2]*last[0] && row[3] == last[3]*last[0] && row[4] == last[4]*last[0]:
			last[0] *= row[0]
		default:
			rows[w.rank] = row
			w.rank++
		}
	}
	if numel == 0 {
		return walk{}
	}
	w.n, w.runs = 1, 1
	if w.rank > 0 {
		w.n, w.step, w.runs = rows[0][0], [3]int(rows[0][2:]), numel/rows[0][0]
	}
	return w
}

// rows returns the walk's merged dimensions.
func (w *walk) rows() [][5]int {
	if w.heap != nil {
		return w.heap
	}
	return w.inline[:]
}

// seek positions the walk at the start of run lo, with hi-lo runs to go.
func (w *walk) seek(lo, hi int) {
	w.left, w.off = hi-lo, w.base
	rows := w.rows()
	for r := 1; r < w.rank; r++ {
		row := &rows[r]
		row[1], lo = lo%row[0], lo/row[0]
		for k := range w.off {
			w.off[k] += row[1] * row[2+k]
		}
	}
}

// next moves the walk to the following run.
func (w *walk) next() {
	w.left--
	rows := w.rows()
	for r := 1; r < w.rank; r++ {
		row := &rows[r]
		if row[1]++; row[1] < row[0] {
			for k := range w.off {
				w.off[k] += row[2+k]
			}
			return
		}
		row[1] = 0
		for k := range w.off {
			w.off[k] -= (row[0] - 1) * row[2+k]
		}
	}
}

// grain converts a parallel grain in elements to one in runs.
func (w *walk) grain(elems int) int { return max(1, elems/max(w.n, 1)) }

// copyRuns copies runs [lo, hi) of the walk from operand 1, in src, to
// operand 0, in dst.
func (w *walk) copyRuns(dst, src []float32, lo, hi int) {
	for w.seek(lo, hi); w.left > 0; w.next() {
		d, s := dst[w.off[0]:], src[w.off[1]:]
		if w.step[0] == 1 && w.step[1] == 1 {
			copy(d[:w.n], s[:w.n])
			continue
		}
		for i := 0; i < w.n; i++ {
			d[i*w.step[0]] = s[i*w.step[1]]
		}
	}
}
