// BERT: the paper's graph-pruning case study (Fig. 3, Tables III and VI).
// BERT's ONNX export carries constant shape-computation chains in every
// multi-headed-attention block; constant propagation + dead-code
// elimination folds them away, which both shrinks the graph and collapses
// the clustering.
package main

import (
	"fmt"
	"log"

	ramiel "repro"
)

func main() {
	g, err := ramiel.BuildModel("bert", ramiel.ModelConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bert: %d nodes (12 transformer layers with exporter constant chains)\n", len(g.Nodes))

	plain, err := ramiel.Compile(g)
	if err != nil {
		log.Fatal(err)
	}
	pruned, err := ramiel.Compile(g, ramiel.WithPrune())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("constant propagation folded %d nodes; DCE removed %d nodes and %d initializers\n",
		pruned.PruneReport.Fold.Folded,
		pruned.PruneReport.DCE.RemovedNodes,
		pruned.PruneReport.DCE.RemovedInitializers)
	fmt.Printf("graph: %d → %d nodes; clusters: %d → %d (paper Table III: 5 → 3)\n",
		len(g.Nodes), len(pruned.Graph.Nodes),
		plain.NumClusters(), pruned.NumClusters())

	// Wall-clock speedups on this host, both against the UNPRUNED one-lane
	// run (as in Table VI). MeasureSpeedup also checks each program's
	// outputs against the unpruned sequential run, so pruning must not
	// change the classifier logits.
	lc, err := ramiel.MeasureSpeedup(plain, plain, 5)
	if err != nil {
		log.Fatal(err)
	}
	dce, err := ramiel.MeasureSpeedup(pruned, plain, 5)
	if err != nil {
		log.Fatalf("pruned program: %v", err)
	}
	fmt.Printf("measured speedup: LC %.2fx → LC+CP+DCE %.2fx (paper: 1.07x → 1.15x)\n", lc.X(), dce.X())
	fmt.Println("pruned parallel logits match the unpruned sequential run")
}
