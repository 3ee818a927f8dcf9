// Inception: the paper's cloning case study (Fig. 7). Inception V3 has
// parallel paths of very low computational intensity; limited task cloning
// replicates the cheap fan-out nodes so linear clustering can extend paths
// and drop cross-cluster messages. This example compares plain LC with
// LC + cloning in wall-clock time on this host.
package main

import (
	"fmt"
	"log"

	ramiel "repro"
)

func main() {
	g, err := ramiel.BuildModel("inception_v3", ramiel.ModelConfig{ImageSize: 64})
	if err != nil {
		log.Fatal(err)
	}

	plain, err := ramiel.Compile(g)
	if err != nil {
		log.Fatal(err)
	}
	cloned, err := ramiel.Compile(g, ramiel.WithClone())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inception_v3: %d nodes; cloning replicated %d nodes (+%d replicas)\n",
		len(g.Nodes), cloned.CloneReport.ClonedNodes, cloned.CloneReport.AddedNodes)
	fmt.Printf("cross-cluster messages: plain %d → cloned %d\n",
		plain.Clustering.CrossEdges(), cloned.Clustering.CrossEdges())

	// Both against the un-cloned one-lane run: cloning adds redundant
	// work, so its own one-lane time would flatter it. MeasureSpeedup also
	// checks the cloned program's outputs against the plain sequential run.
	sPlain, err := ramiel.MeasureSpeedup(plain, plain, 5)
	if err != nil {
		log.Fatal(err)
	}
	sClone, err := ramiel.MeasureSpeedup(cloned, plain, 5)
	if err != nil {
		log.Fatalf("cloned program: %v", err)
	}
	fmt.Printf("measured speedup on this host: plain LC %.2fx, LC+cloning %.2fx (%+.1f%%)\n",
		sPlain.X(), sClone.X(), (sClone.X()/sPlain.X()-1)*100)
	fmt.Println("paper: Inception V3 1.32x → 1.42x with cloning (Table VII)")

	// Per-cluster report for the cloned program.
	fmt.Println("\ncloned clustering:")
	for _, c := range cloned.Clustering.Clusters {
		fmt.Printf("  C%-3d %4d ops, static cost %6.0f\n",
			c.ID, len(c.Nodes), c.Cost(cloned.Clustering.Model))
	}

	fmt.Println("\ncloned parallel outputs verified against plain sequential run")
}
