// Package cost implements the static weighted cost model of Section III-A:
// each operator is assigned a fixed weight — heavy DL operations like Conv
// and MatMul cost more than simple elementwise ones, with larger convolution
// kernels costing more than smaller ones — and the potential-parallelism
// factor of a dataflow graph is the total weighted node cost divided by the
// weighted critical-path cost (with a unit overhead added per critical-path
// edge to model tensor-dependence overhead).
package cost

import (
	"repro/internal/graph"
)

// Model maps nodes to static costs. Implementations must be deterministic
// and safe for concurrent use.
type Model interface {
	// NodeCost returns the weighted execution cost of a node (>= 1).
	NodeCost(n *graph.Node) float64
	// EdgeCost returns the communication overhead charged per tensor
	// dependence on the critical path (the paper uses 1).
	EdgeCost() float64
}

// StaticModel is the paper's table of per-op weights. The zero value is NOT
// usable; construct with DefaultModel.
type StaticModel struct {
	// Weights maps op types to base costs; ops not present use DefaultWt.
	Weights map[string]float64
	// KernelScale scales Conv cost by kernel size class when > 0: a KxK
	// kernel contributes K*K/9 relative to the 3x3 baseline.
	KernelScale bool
	// DefaultWt is the cost of unlisted (assumed elementwise) ops.
	DefaultWt float64
	// Edge is the per-edge overhead on the critical path.
	Edge float64
}

// DefaultModel returns the weight table used throughout the reproduction,
// mirroring the paper's description: Conv/MatMul heavy (with 5x5 and 7x7
// kernels weighted above 3x3 and 1x1), pooling and normalization moderate,
// elementwise ops at unit cost.
func DefaultModel() *StaticModel {
	return &StaticModel{
		Weights: map[string]float64{
			"Conv":               6,
			"MatMul":             8,
			"Gemm":               8,
			"MaxPool":            2,
			"AveragePool":        2,
			"GlobalAveragePool":  2,
			"BatchNormalization": 2,
			"LayerNormalization": 3,
			"Softmax":            3,
			"ReduceMean":         2,
			"Concat":             2,
			"Resize":             2,
			"Transpose":          2,
			"Gather":             1,
			"Slice":              1,
			"Split":              2,
			"Reshape":            1,
			"Flatten":            1,
			"Squeeze":            1,
			"Unsqueeze":          1,
			"Shape":              1,
			"Constant":           1,
			"Identity":           1,
			"Erf":                1,
			"FusedElementwise":   1, // k collapsed elementwise passes cost ~1 sweep
			"Relu":               1,
			"LeakyRelu":          1,
			"Sigmoid":            1,
			"Tanh":               1,
			"Add":                1,
			"Sub":                1,
			"Mul":                1,
			"Div":                1,
			"Pow":                1,
			"Sqrt":               1,
			"Exp":                1,
			"Neg":                1,
			"Clip":               1,
		},
		KernelScale: true,
		DefaultWt:   1,
		Edge:        1,
	}
}

// NodeCost implements Model.
func (m *StaticModel) NodeCost(n *graph.Node) float64 {
	w, ok := m.Weights[n.OpType]
	if !ok {
		w = m.DefaultWt
	}
	if m.KernelScale && n.OpType == "Conv" {
		if ks := n.Attrs.Ints("kernel_shape", nil); len(ks) == 2 {
			k := float64(ks[0]*ks[1]) / 9.0 // 3x3 baseline
			if k < 0.25 {
				k = 0.25 // 1x1 convs still do real work per output pixel
			}
			w *= k
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// EdgeCost implements Model.
func (m *StaticModel) EdgeCost() float64 { return m.Edge }

// GraphCost sums the weighted cost of every node in g.
func GraphCost(g *graph.Graph, m Model) float64 {
	var total float64
	for _, n := range g.Nodes {
		total += m.NodeCost(n)
	}
	return total
}

// DistanceToEnd computes, for every node, the maximum weighted distance
// from that node to any sink: the node's own cost plus the heaviest
// downstream path, charging EdgeCost per traversed edge. This is the
// "distance pass" of the LC algorithm and also yields the critical path
// cost as the maximum over sources.
func DistanceToEnd(g *graph.Graph, m Model) (map[*graph.Node]float64, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	dist := make(map[*graph.Node]float64, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		best := 0.0
		for _, s := range g.Successors(n) {
			if d := dist[s] + m.EdgeCost(); d > best {
				best = d
			}
		}
		dist[n] = best + m.NodeCost(n)
	}
	return dist, nil
}

// CriticalPath returns the heaviest source-to-sink path (as a node slice in
// execution order) and its weighted cost including per-edge overhead.
func CriticalPath(g *graph.Graph, m Model) ([]*graph.Node, float64, error) {
	dist, err := DistanceToEnd(g, m)
	if err != nil {
		return nil, 0, err
	}
	var start *graph.Node
	for _, n := range g.Sources() {
		if start == nil || dist[n] > dist[start] {
			start = n
		}
	}
	if start == nil {
		return nil, 0, nil
	}
	path := []*graph.Node{start}
	cur := start
	for {
		var next *graph.Node
		for _, s := range g.Successors(cur) {
			if next == nil || dist[s] > dist[next] {
				next = s
			}
		}
		if next == nil {
			break
		}
		path = append(path, next)
		cur = next
	}
	return path, dist[start], nil
}

// Metrics is the per-model row of Table I.
type Metrics struct {
	Nodes        int
	NodeCost     float64
	CriticalPath float64
	Parallelism  float64
}

// ComputeMetrics evaluates the potential-parallelism factor of Section
// III-A: total weighted node cost over weighted critical-path cost.
func ComputeMetrics(g *graph.Graph, m Model) (Metrics, error) {
	_, cp, err := CriticalPath(g, m)
	if err != nil {
		return Metrics{}, err
	}
	total := GraphCost(g, m)
	par := 0.0
	if cp > 0 {
		par = total / cp
	}
	return Metrics{
		Nodes:        len(g.Nodes),
		NodeCost:     total,
		CriticalPath: cp,
		Parallelism:  par,
	}, nil
}
