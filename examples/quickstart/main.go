// Quickstart: build Squeezenet, task-parallelize it with critical-path
// linear clustering, run the parallel program and verify it against the
// sequential baseline — the end-to-end flow of the paper in ~40 lines.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	ramiel "repro"
)

func main() {
	// 1. Ingest a model (Squeezenet: the paper's Fig. 1 running example).
	g, err := ramiel.BuildModel("squeezenet", ramiel.ModelConfig{ImageSize: 64})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %s: %d operator nodes\n", g.Name, len(g.Nodes))

	// 2. Compile: distance pass → recursive critical-path linear
	//    clustering → iterative cluster merging.
	prog, err := ramiel.Compile(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled to %d clusters in %v\n", prog.NumClusters(), prog.CompileTime.Round(time.Microsecond))
	met, err := prog.Metrics()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("potential parallelism: %.2fx (paper reports 0.86x for Squeezenet)\n", met.Parallelism)

	// 3. Execute through a Session: one goroutine per cluster, channels
	//    carry cross-cluster tensors; the session owns a tensor arena that
	//    recycles intermediates across its runs, and the program's timeline
	//    records where each lane spent the run. Verify against the
	//    sequential reference.
	prog.EnableTimeline(1, 1)
	sess := prog.NewSession()
	feeds := ramiel.RandomInputs(g, 42)
	t0 := time.Now()
	want, err := prog.RunSequential(feeds)
	if err != nil {
		log.Fatal(err)
	}
	seq := time.Since(t0)
	t0 = time.Now()
	got, err := sess.Run(context.Background(), feeds)
	if err != nil {
		log.Fatal(err)
	}
	par := time.Since(t0)
	for name, w := range want {
		if !got[name].AllClose(w, 1e-4, 1e-5) {
			log.Fatalf("output %q differs between parallel and sequential run", name)
		}
	}
	fmt.Printf("sequential %v, parallel %v — outputs identical\n",
		seq.Round(time.Microsecond), par.Round(time.Microsecond))
	fmt.Printf("communication slack across lanes: %v (hyperclustering exists to fill this)\n",
		time.Duration(prog.LastTimeline().WaitTimeNs()).Round(time.Microsecond))
}
