// Command benchtab regenerates the paper's evaluation tables and figures
// (Tables I–VIII, Figs. 12–14) plus the design ablations, printing each next
// to the published numbers. Runtime cells are wall-clock times measured on
// this host: each speedup is the median of alternating one-lane/lanes
// pairs of warm runs, with outputs checked against the sequential run.
//
// Usage:
//
//	benchtab                     # everything
//	benchtab -table 4            # one table
//	benchtab -fig 13             # one figure
//	benchtab -ablations          # ablation studies only
//	benchtab -img 96 -reps 5     # harness parameters
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtab: ")
	table := flag.Int("table", 0, "regenerate one table (1-8); 0 = all")
	fig := flag.Int("fig", 0, "regenerate one figure (12-14); 0 = all")
	ablations := flag.Bool("ablations", false, "run only the ablation studies")
	img := flag.Int("img", 64, "image size for vision models")
	reps := flag.Int("reps", 7, "timed one-lane/lanes pairs per measured speedup")
	flag.Parse()

	opts := bench.Opts{ImageSize: *img, Reps: *reps}

	type job struct {
		name string
		fn   func(bench.Opts) (string, error)
	}
	tables := []job{
		{"table 1", bench.Table1}, {"table 2", bench.Table2},
		{"table 3", bench.Table3}, {"table 4", bench.Table4},
		{"table 5", bench.Table5}, {"table 6", bench.Table6},
		{"table 7", bench.Table7}, {"table 8", bench.Table8},
	}
	figs := []job{
		{"fig 12", bench.Fig12}, {"fig 13", bench.Fig13}, {"fig 14", bench.Fig14},
	}
	abls := []job{
		{"ablation merge", bench.AblationMerge},
		{"ablation edge cost", bench.AblationEdgeCost},
		{"ablation clone threshold", bench.AblationCloneThreshold},
	}

	var jobs []job
	switch {
	case *table > 0:
		if *table > len(tables) {
			log.Fatalf("no table %d", *table)
		}
		jobs = []job{tables[*table-1]}
	case *fig > 0:
		if *fig < 12 || *fig > 14 {
			log.Fatalf("no figure %d (have 12-14)", *fig)
		}
		jobs = []job{figs[*fig-12]}
	case *ablations:
		jobs = abls
	default:
		jobs = append(append(append([]job{}, tables...), figs...), abls...)
	}

	for _, j := range jobs {
		out, err := j.fn(opts)
		if err != nil {
			log.Fatalf("%s failed: %v", j.name, err)
		}
		fmt.Println(out)
	}
}
