package exec

import (
	"math"
	"sort"

	"repro/internal/cost"
	"repro/internal/graph"
)

// OpCalibration is one operator type's row of a calibration report: how the
// static cost model's weight for the op compares to its live measured cost.
type OpCalibration struct {
	Op string `json:"op"`
	// Nodes is how many plan nodes of this type have executed; Count and
	// TotalNs are their cumulative invocations and kernel time.
	Nodes   int   `json:"nodes"`
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	// MeanUs is the measured mean kernel time per invocation.
	MeanUs float64 `json:"mean_us"`
	// StaticWt is the mean static weight the cost model assigns the op's
	// nodes (kernel-size scaling included, so Conv nodes can differ).
	StaticWt float64 `json:"static_weight"`
	// UsPerWeight is measured µs per static weight unit for this op; Ratio
	// normalizes it by the plan-wide baseline, so Ratio > 1 means the
	// static model undercosts the op and Ratio < 1 means it overcosts it.
	UsPerWeight float64 `json:"us_per_weight"`
	Ratio       float64 `json:"ratio"`
	// Log2Ratio is log2(Ratio) — the symmetric divergence the worst-offender
	// ranking sorts by (2x under- and 2x overcosting are equally wrong).
	Log2Ratio float64 `json:"log2_ratio"`
}

// Calibration compares the static cost model against the plan's live
// per-node execution counters: a per-op ratio table, the rank correlation
// between predicted and measured node costs, and the worst-diverging ops.
type Calibration struct {
	// Nodes is how many plan nodes have measurements (opCount > 0).
	Nodes int `json:"nodes"`
	// BaselineUsPerWt is the plan-wide measured µs per static weight unit —
	// the conversion factor a perfectly-proportional static model would
	// make exact for every op.
	BaselineUsPerWt float64 `json:"baseline_us_per_weight"`
	// RankCorrelation is the Spearman rank correlation between static node
	// cost and measured mean node time across all measured nodes: 1.0 means
	// the static model orders every pair of nodes correctly (which is all
	// a scheduler needs), 0 means no relationship.
	RankCorrelation float64 `json:"rank_correlation"`
	// Ops is the per-op table, sorted by cumulative measured time
	// descending; Worst repeats the most divergent entries (largest
	// |Log2Ratio|, most divergent first, at most five).
	Ops   []OpCalibration `json:"ops"`
	Worst []OpCalibration `json:"worst,omitempty"`
}

// Calibrate builds a calibration report from the plan's live per-node
// execution counters (accumulated across every run since the plan was
// built) against the static cost model m (nil = the paper's default
// weights). Returns nil when nothing has executed yet. Safe to call
// concurrently with runs; a report racing active lanes may miss their
// in-flight nodes.
func (p *Plan) Calibrate(m cost.Model) *Calibration {
	if m == nil {
		m = cost.DefaultModel()
	}
	type nodeMeas struct {
		meanUs float64
		wt     float64
	}
	var (
		nodes []nodeMeas
		perOp = make(map[string]*OpCalibration)
		sumUs float64
		sumWt float64
	)
	p.eachOp(func(n *graph.Node, c, ns int64) {
		meanUs := float64(ns) / float64(c) / 1e3
		if meanUs < 0.05 {
			meanUs = 0.05 // same floor as MeasureCosts: dispatch is never free
		}
		wt := m.NodeCost(n)
		nodes = append(nodes, nodeMeas{meanUs, wt})
		sumUs += meanUs
		sumWt += wt
		oc := perOp[n.OpType]
		if oc == nil {
			oc = &OpCalibration{Op: n.OpType}
			perOp[n.OpType] = oc
		}
		oc.Nodes++
		oc.Count += c
		oc.TotalNs += ns
		oc.MeanUs += meanUs // per-node mean sum, replaced by the true mean below
		oc.StaticWt += wt   // per-node weight sum, likewise
	})
	if len(nodes) == 0 {
		return nil
	}
	baseline := sumUs / sumWt
	xs := make([]float64, len(nodes))
	ys := make([]float64, len(nodes))
	for i, nm := range nodes {
		xs[i] = nm.wt
		ys[i] = nm.meanUs
	}
	cal := &Calibration{
		Nodes:           len(nodes),
		BaselineUsPerWt: baseline,
		RankCorrelation: spearman(xs, ys),
	}
	for _, oc := range perOp {
		sumNodeUs, sumNodeWt := oc.MeanUs, oc.StaticWt
		oc.MeanUs = float64(oc.TotalNs) / float64(oc.Count) / 1e3
		oc.StaticWt = sumNodeWt / float64(oc.Nodes)
		oc.UsPerWeight = sumNodeUs / sumNodeWt
		oc.Ratio = oc.UsPerWeight / baseline
		if oc.Ratio > 0 {
			oc.Log2Ratio = math.Log2(oc.Ratio)
		}
		cal.Ops = append(cal.Ops, *oc)
	}
	sort.Slice(cal.Ops, func(i, j int) bool {
		if cal.Ops[i].TotalNs != cal.Ops[j].TotalNs {
			return cal.Ops[i].TotalNs > cal.Ops[j].TotalNs
		}
		return cal.Ops[i].Op < cal.Ops[j].Op
	})
	worst := append([]OpCalibration(nil), cal.Ops...)
	sort.Slice(worst, func(i, j int) bool {
		di, dj := math.Abs(worst[i].Log2Ratio), math.Abs(worst[j].Log2Ratio)
		if di != dj {
			return di > dj
		}
		return worst[i].Op < worst[j].Op
	})
	if len(worst) > 5 {
		worst = worst[:5]
	}
	cal.Worst = worst
	return cal
}

// spearman computes the Spearman rank correlation between two paired
// variables (ties get averaged ranks). Returns 0 when fewer than two pairs
// or either variable is constant.
func spearman(xs, ys []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	rx := ranks(xs)
	ry := ranks(ys)
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += rx[i]
		my += ry[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var cov, vx, vy float64
	for i := 0; i < n; i++ {
		dx, dy := rx[i]-mx, ry[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// ranks assigns 1-based ranks with averaged ties.
func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	r := make([]float64, len(v))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}
