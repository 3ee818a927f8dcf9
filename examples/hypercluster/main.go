// Hypercluster: the paper's Section III-E. With batch size > 1, operations
// from several inference samples are interleaved into each cluster so a
// lane blocked on a remote tensor of one sample computes another sample
// instead; switched hyperclustering additionally rotates cluster
// assignments per sample to balance lane loads (Figs. 8, 9, 13, 14).
package main

import (
	"fmt"
	"log"

	ramiel "repro"
)

func main() {
	g, err := ramiel.BuildModel("squeezenet", ramiel.ModelConfig{ImageSize: 64})
	if err != nil {
		log.Fatal(err)
	}
	prog, err := ramiel.Compile(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("squeezenet: %d clusters at batch 1\n\n", prog.NumClusters())
	fmt.Printf("%6s | %10s %10s %10s\n", "batch", "plain", "switched", "uplift")

	// Each hyperclustered program is timed against its own batched one-lane
	// run, and its outputs are checked against that run's sequential
	// execution.
	for _, batch := range []int{2, 4, 8} {
		var sp [2]float64
		for i, switched := range []bool{false, true} {
			hp, err := prog.Hypercluster(batch, switched)
			if err != nil {
				log.Fatal(err)
			}
			s, err := ramiel.MeasureSpeedup(hp, hp, 5)
			if err != nil {
				log.Fatalf("batch %d switched=%v: %v", batch, switched, err)
			}
			sp[i] = s.X()
		}
		fmt.Printf("%6d | %9.2fx %9.2fx %+8.1f%%\n", batch, sp[0], sp[1], (sp[1]/sp[0]-1)*100)
	}
	fmt.Println("\n(every run verified against the sequential batched execution; speedups measured on this host)")
	fmt.Println("paper: hypercluster speedup rises with batch size; switching adds up to ~30%")
}
