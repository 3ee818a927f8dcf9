// Package passes implements the graph-pruning and restructuring
// optimizations of Sections III-C and III-D: constant propagation and
// folding plus dead-code elimination (delegated to onnxruntime in the
// paper, implemented natively here) and limited task cloning.
package passes

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// FoldReport summarizes one constant-folding run.
type FoldReport struct {
	// Folded is the number of nodes evaluated at compile time and replaced
	// by initializers.
	Folded int
	// NewInitializers lists the value names materialized.
	NewInitializers []string
}

// FoldConstants evaluates every node whose inputs are all compile-time
// constants (initializers or outputs of already-folded nodes, including
// zero-input Constant nodes) and replaces it with initializers holding its
// outputs. One topological sweep reaches the fixed point because constancy
// propagates forward. The graph is mutated in place.
func FoldConstants(g *graph.Graph) (FoldReport, error) {
	order, err := g.TopoSort()
	if err != nil {
		return FoldReport{}, err
	}
	report := FoldReport{}
	folded := map[*graph.Node]bool{}
	for _, n := range order {
		if !ops.Supported(n.OpType) {
			continue
		}
		constant := true
		inputs := make([]*tensor.Tensor, len(n.Inputs))
		for i, in := range n.Inputs {
			t, ok := g.Initializers[in]
			if !ok {
				constant = false
				break
			}
			inputs[i] = t
		}
		if !constant {
			continue
		}
		kernel, err := ops.Bind(n.OpType, n.Attrs, nil)
		if err != nil {
			continue
		}
		outs, err := kernel.Run(inputs, nil, false)
		if err != nil {
			return report, fmt.Errorf("passes: folding %s: %w", n.Name, err)
		}
		if len(outs) < len(n.Outputs) {
			return report, fmt.Errorf("passes: folding %s: kernel returned %d outputs, node declares %d",
				n.Name, len(outs), len(n.Outputs))
		}
		for i, name := range n.Outputs {
			g.AddInitializer(name, outs[i])
			report.NewInitializers = append(report.NewInitializers, name)
		}
		folded[n] = true
		report.Folded++
	}
	if report.Folded > 0 {
		g.RemoveNodes(func(n *graph.Node) bool { return folded[n] })
	}
	return report, nil
}

// DCEReport summarizes one dead-code-elimination run.
type DCEReport struct {
	// RemovedNodes counts operator nodes eliminated.
	RemovedNodes int
	// RemovedInitializers counts constant tensors dropped.
	RemovedInitializers int
}

// EliminateDeadCode removes every node from which no graph output is
// reachable, then drops initializers no remaining node references. The
// graph is mutated in place.
func EliminateDeadCode(g *graph.Graph) DCEReport {
	// Live nodes: backward closure from the producers of graph outputs.
	var roots []*graph.Node
	for _, out := range g.Outputs {
		if p := g.Producer(out.Name); p != nil {
			roots = append(roots, p)
		}
	}
	live := g.AncestorsOf(roots)
	report := DCEReport{}
	report.RemovedNodes = g.RemoveNodes(func(n *graph.Node) bool { return !live[n] })

	used := map[string]bool{}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			used[in] = true
		}
	}
	for _, out := range g.Outputs {
		used[out.Name] = true
	}
	for name := range g.Initializers {
		if !used[name] {
			delete(g.Initializers, name)
			report.RemovedInitializers++
		}
	}
	if report.RemovedInitializers > 0 {
		g.Invalidate()
	}
	return report
}

// PruneReport combines folding and DCE results.
type PruneReport struct {
	Fold FoldReport
	DCE  DCEReport
}

// Prune is the paper's "constant propagation + dead-code elimination"
// plugin: fold constants, then eliminate dead code, repeating until neither
// pass changes the graph.
func Prune(g *graph.Graph) (PruneReport, error) {
	total := PruneReport{}
	for {
		fr, err := FoldConstants(g)
		if err != nil {
			return total, err
		}
		dr := EliminateDeadCode(g)
		total.Fold.Folded += fr.Folded
		total.Fold.NewInitializers = append(total.Fold.NewInitializers, fr.NewInitializers...)
		total.DCE.RemovedNodes += dr.RemovedNodes
		total.DCE.RemovedInitializers += dr.RemovedInitializers
		if fr.Folded == 0 && dr.RemovedNodes == 0 {
			return total, nil
		}
	}
}
