package bench

import (
	"fmt"

	ramiel "repro"
	"repro/internal/cost"
	"repro/internal/models"
)

// AblationMerge quantifies the cluster-merging pass (DESIGN.md ablation 1):
// measured speedup and cross-lane message counts with and without
// Algorithms 2-3.
func AblationMerge(opts Opts) (string, error) {
	t := &tb{}
	t.title("Ablation — Cluster merging on/off, " + measured(opts))
	t.row("%-13s %10s %10s | %10s %10s | %9s %9s", "Model",
		"ClusNoMrg", "ClusMerged", "SpdNoMrg", "SpdMerged", "XEdgeNoM", "XEdgeMrg")
	for _, name := range models.TableOrder {
		c, err := model(name, opts)
		if err != nil {
			return "", err
		}
		sp, err := speedups(opts, c.lc, c.lcNoMrg, c.lc)
		if err != nil {
			return "", fmt.Errorf("%s: %w", name, err)
		}
		t.row("%-13s %10d %10d | %9.2fx %9.2fx | %9d %9d", name,
			c.lcNoMrg.NumClusters(), c.lc.NumClusters(), sp[0], sp[1],
			c.lcNoMrg.Clustering.CrossEdges(), c.lc.Clustering.CrossEdges())
	}
	return t.String(), nil
}

// AblationEdgeCost sweeps the static model's per-edge overhead weight and
// reports the resulting potential-parallelism factor (the CP metric's
// sensitivity, DESIGN.md ablation 2).
func AblationEdgeCost(opts Opts) (string, error) {
	t := &tb{}
	t.title("Ablation — Edge-overhead weight in the potential-parallelism metric")
	t.row("%-13s | %8s %8s %8s %8s", "Model", "edge=0", "edge=1", "edge=2", "edge=4")
	for _, name := range models.TableOrder {
		g, err := ramiel.BuildModel(name, ramiel.ModelConfig{ImageSize: opts.ImageSize})
		if err != nil {
			return "", err
		}
		var cells []float64
		for _, e := range []float64{0, 1, 2, 4} {
			m := cost.DefaultModel()
			m.Edge = e
			met, err := cost.ComputeMetrics(g, m)
			if err != nil {
				return "", err
			}
			cells = append(cells, met.Parallelism)
		}
		t.row("%-13s | %7.2fx %7.2fx %7.2fx %7.2fx", name, cells[0], cells[1], cells[2], cells[3])
	}
	t.blank()
	t.row("Higher edge weight depresses the metric most for long thin graphs (squeezenet).")
	return t.String(), nil
}

// AblationCloneThreshold sweeps the cloning cost bound (DESIGN.md ablation
// 4): clones made and measured speedup per threshold, against the
// un-cloned program's one-lane run.
func AblationCloneThreshold(opts Opts) (string, error) {
	t := &tb{}
	t.title("Ablation — Cloning cost threshold, " + measured(opts))
	t.row("%-13s | %22s %22s %22s", "Model", "cone<=10", "cone<=40", "cone<=120")
	for _, name := range []string{"squeezenet", "googlenet", "inception_v3"} {
		c, err := model(name, opts)
		if err != nil {
			return "", err
		}
		var cells []string
		for _, maxCost := range []float64{10, 40, 120} {
			co := ramiel.CloneOptions{MaxConeCost: maxCost, MaxConeNodes: 24, MaxFanout: 4, TopFraction: 0.5, MaxClones: 192}
			prog, err := ramiel.Compile(c.g, ramiel.WithClone(co), ramiel.WithoutFusion())
			if err != nil {
				return "", err
			}
			sp, err := ramiel.MeasureSpeedup(prog, c.lc, opts.Reps)
			if err != nil {
				return "", fmt.Errorf("%s: %w", name, err)
			}
			cells = append(cells, fmt.Sprintf("%d clones, %.2fx", prog.CloneReport.AddedNodes, sp.X()))
		}
		t.row("%-13s | %22s %22s %22s", name, cells[0], cells[1], cells[2])
	}
	return t.String(), nil
}
