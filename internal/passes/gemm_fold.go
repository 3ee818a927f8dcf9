package passes

import (
	"repro/internal/graph"
	"repro/internal/ops"
)

// FoldBiases absorbs each Add(MatMul(x, W), b) into the MatMul as its third
// input, which the kernel adds in the GEMM writeback (a bias epilogue),
// and removes the Add. It folds only when the value is exactly that of the
// Add: b is a constant initializer of N elements that broadcasts along the
// last axis only, where N is the last dim of the constant W, and its rank
// is at most W's, so the Add widens nothing. The MatMul must have the Add
// as its sole consumer and carry no epilogue or view yet. Returns the
// number of Adds absorbed.
//
// Like FoldViews, it rebuilds the graph's index once, at the end: every
// index entry a fold leaves stale names a removed node or a value no live
// node reads, and the checks skip removed nodes.
func FoldBiases(g *graph.Graph) (int, error) {
	count := 0
	removed := map[*graph.Node]bool{}
	for _, add := range g.Nodes {
		if add.OpType != "Add" || len(add.Inputs) != 2 || len(add.Outputs) != 1 {
			continue
		}
		for pos, in := range add.Inputs {
			mm := g.Producer(in)
			if mm == nil || removed[mm] || mm.OpType != "MatMul" || len(mm.Inputs) != 2 ||
				hasFusionAttrs(mm) || hasAnyView(mm) || soleConsumerEdge(g, mm) != add {
				continue
			}
			w, b := constParam(g, mm.Inputs[1]), constParam(g, add.Inputs[1-pos])
			if w == nil || b == nil || w.Rank() < 2 || b.Rank() > w.Rank() ||
				b.Numel() != w.Shape()[w.Rank()-1] || !lastAxisOnly(b.Shape()) {
				continue
			}
			mm.Inputs = append(mm.Inputs, add.Inputs[1-pos])
			mm.Outputs[0] = add.Outputs[0]
			removed[add] = true
			count++
			break
		}
	}
	if count > 0 {
		g.RemoveNodes(func(n *graph.Node) bool { return removed[n] })
	}
	return count, nil
}

// lastAxisOnly reports whether every dim of s but the last is 1.
func lastAxisOnly(s []int) bool {
	for _, d := range s[:max(len(s)-1, 0)] {
		if d != 1 {
			return false
		}
	}
	return true
}

// hasAnyView reports whether a MatMul already reads or writes through a
// view.
func hasAnyView(n *graph.Node) bool {
	return ops.HasView(n.Attrs, ops.ViewA) || ops.HasView(n.Attrs, ops.ViewB) || ops.HasView(n.Attrs, ops.ViewY)
}

// FoldViews folds the data-movement chains around each MatMul into the
// node as views (ops.ViewKeys) that the kernel reads or writes through
// strides: [Reshape(const dims)] → Transpose+ on an input, and
// Transpose+ → [Reshape(const dims)] on the output. Every value inside a
// chain must have the next chain node as its sole consumer and not be a
// graph output; consecutive perms compose into one; and a chain is folded
// only when ops.GemmAddressable accepts the composed perm. Returns the
// number of Transpose and Reshape nodes removed.
func FoldViews(g *graph.Graph) (int, error) {
	folded := 0
	removed := map[*graph.Node]bool{}
	for _, mm := range g.Nodes {
		if mm.OpType != "MatMul" || removed[mm] || len(mm.Inputs) < 2 || len(mm.Outputs) != 1 {
			continue
		}
		for which := ops.ViewA; which <= ops.ViewB; which++ {
			folded += foldInputView(g, mm, which, removed)
		}
		folded += foldOutputView(g, mm, removed)
	}
	if folded > 0 {
		g.RemoveNodes(func(n *graph.Node) bool { return removed[n] })
	}
	return folded, nil
}

// foldInputView folds the chain producing mm's input which into a view and
// returns the number of nodes it removed.
func foldInputView(g *graph.Graph, mm *graph.Node, which int, removed map[*graph.Node]bool) int {
	v := mm.Inputs[which]
	if ops.HasView(mm.Attrs, which) || mm.Inputs[1-which] == v {
		return 0
	}
	var chain []*graph.Node // from mm back towards the source
	var perm, dims []int
	for next := mm; ; {
		p := g.Producer(v)
		if p == nil || removed[p] || soleConsumerEdge(g, p) != next {
			break
		}
		if p.OpType == "Reshape" && perm != nil {
			if dims = reshapeDims(g, p); dims != nil {
				chain, v = append(chain, p), p.Inputs[0]
			}
			break
		}
		if p.OpType != "Transpose" || len(p.Inputs) != 1 {
			break
		}
		q := p.Attrs.Ints("perm", nil)
		if perm != nil {
			q = composePerm(q, perm) // p runs before the Transposes after it
		}
		if q == nil || !ops.IsPerm(q) {
			break
		}
		perm, chain, v, next = q, append(chain, p), p.Inputs[0], p
	}
	if perm == nil || (dims != nil && len(dims) != len(perm)) || !ops.GemmAddressable(which, perm) {
		return 0
	}
	setView(mm, which, dims, perm)
	mm.Inputs[which] = v
	return markRemoved(chain, removed)
}

// foldOutputView folds the chain consuming mm's output into a view and
// returns the number of nodes it removed.
func foldOutputView(g *graph.Graph, mm *graph.Node, removed map[*graph.Node]bool) int {
	if ops.HasView(mm.Attrs, ops.ViewY) {
		return 0
	}
	var chain []*graph.Node // from mm towards the sink
	var perm, dims []int
	for cur := mm; ; {
		c := soleConsumerEdge(g, cur)
		if c == nil || removed[c] || len(c.Outputs) != 1 || c.Inputs[0] != cur.Outputs[0] {
			break
		}
		if c.OpType == "Reshape" && perm != nil {
			if dims = reshapeDims(g, c); dims != nil {
				chain = append(chain, c)
			}
			break
		}
		if c.OpType != "Transpose" || len(c.Inputs) != 1 {
			break
		}
		q := c.Attrs.Ints("perm", nil)
		if perm != nil {
			q = composePerm(perm, q)
		}
		if q == nil || !ops.IsPerm(q) {
			break
		}
		perm, chain, cur = q, append(chain, c), c
	}
	if perm == nil || !ops.GemmAddressable(ops.ViewY, perm) {
		return 0
	}
	setView(mm, ops.ViewY, dims, perm)
	mm.Outputs[0] = chain[len(chain)-1].Outputs[0]
	return markRemoved(chain, removed)
}

// composePerm returns the perm of Transpose(first) followed by
// Transpose(then): output dim i reads input dim first[then[i]]. Nil when
// either is not a permutation or their ranks differ.
func composePerm(first, then []int) []int {
	if len(first) != len(then) || !ops.IsPerm(first) || !ops.IsPerm(then) {
		return nil
	}
	out := make([]int, len(then))
	for i, p := range then {
		out[i] = first[p]
	}
	return out
}

// reshapeDims returns a Reshape node's target dims when they are a
// compile-time constant: a constant shape input or a "shape" attribute.
func reshapeDims(g *graph.Graph, n *graph.Node) []int {
	if len(n.Inputs) == 2 {
		t := constParam(g, n.Inputs[1])
		if t == nil || t.Rank() != 1 {
			return nil
		}
		dims := make([]int, t.Numel())
		for i, v := range t.Data() {
			dims[i] = int(v)
		}
		return dims
	}
	return n.Attrs.Ints("shape", nil)
}

// setView records a view on n.
func setView(n *graph.Node, which int, dims, perm []int) {
	if n.Attrs == nil {
		n.Attrs = ops.Attrs{}
	}
	dk, pk := ops.ViewKeys(which)
	if dims != nil {
		n.Attrs[dk] = dims
	}
	n.Attrs[pk] = perm
}

// markRemoved marks chain's nodes removed and returns how many there are.
func markRemoved(chain []*graph.Node, removed map[*graph.Node]bool) int {
	for _, n := range chain {
		removed[n] = true
	}
	return len(chain)
}
