// Package sched implements the comparison scheduler of the evaluation: an
// IOS-style dynamic-programming inter-operator scheduler (Ding et al.,
// MLSys 2021), reproduced in-repo so Table VIII's compile-time-versus-
// runtime trade-off can be measured. It consumes the same graphs and cost
// model as the paper's Linear Clustering and emits exec-compatible lane
// plans.
package sched

import (
	"sort"

	"repro/internal/cost"
	"repro/internal/graph"
)

// chainNode is a linear chain of operator nodes — one operator, or a run
// contracted by contractBlock (the original's "operator group" notion);
// DP states range over chainNodes.
type chainNode struct {
	id    int
	nodes []*graph.Node
	cost  float64
	succs []*chainNode
	preds []*chainNode
}

// blocks splits the chain DAG at synchronization points — chains that every
// other concurrent path passes through — mirroring IOS's decomposition of
// networks into sequential blocks that are scheduled independently. The
// result is a partition of chains into consecutive blocks.
func blocks(chains []*chainNode) [][]*chainNode {
	if len(chains) == 0 {
		return nil
	}
	// A chain c is a synchronization point when, processing in topological
	// order, the number of "open" paths drops to zero after c: we track
	// active = chains whose successors are not fully emitted yet.
	indeg := make(map[*chainNode]int, len(chains))
	for _, c := range chains {
		indeg[c] = len(c.preds)
	}
	var out [][]*chainNode
	var cur []*chainNode
	pendingEdges := 0
	for _, c := range chains { // chains are in topo order by construction
		cur = append(cur, c)
		pendingEdges -= indeg[c]
		pendingEdges += len(c.succs)
		// c is a synchronization point when every outstanding edge
		// originates at c itself: everything before c has fully drained,
		// so the block may close here (c's successors start the next
		// block, with c treated as already executed).
		if pendingEdges == len(c.succs) {
			out = append(out, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// operatorChains wraps every operator in its own chainNode: the
// operator-granularity mode in which the published IOS dynamic program
// runs, and the reason its search space (downward-closed subsets of a
// module's operators) dwarfs linear clustering's linear-time sweep.
func operatorChains(g *graph.Graph, m cost.Model) ([]*chainNode, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	owner := make(map[*graph.Node]*chainNode, len(order))
	chains := make([]*chainNode, 0, len(order))
	for _, n := range order {
		c := &chainNode{id: len(chains), nodes: []*graph.Node{n}, cost: m.NodeCost(n)}
		chains = append(chains, c)
		owner[n] = c
	}
	for _, c := range chains {
		for _, s := range g.Successors(c.nodes[0]) {
			sc := owner[s]
			c.succs = append(c.succs, sc)
			sc.preds = append(sc.preds, c)
		}
	}
	for _, c := range chains {
		sort.Slice(c.succs, func(i, j int) bool { return c.succs[i].id < c.succs[j].id })
		sort.Slice(c.preds, func(i, j int) bool { return c.preds[i].id < c.preds[j].id })
	}
	return chains, nil
}
