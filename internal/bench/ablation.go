package bench

import (
	"fmt"

	ramiel "repro"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/models"
)

// AblationMerge quantifies the cluster-merging pass (DESIGN.md ablation 1):
// simulated makespan and message counts with and without Algorithms 2-3.
func AblationMerge(opts Opts) (string, error) {
	h := newHarness(opts)
	t := &tb{}
	t.title("Ablation — Cluster merging on/off")
	t.row("%-13s %10s %10s | %10s %10s | %9s %9s", "Model",
		"ClusNoMrg", "ClusMerged", "SpdNoMrg", "SpdMerged", "XEdgeNoM", "XEdgeMrg")
	for _, name := range models.TableOrder {
		c, err := h.model(name)
		if err != nil {
			return "", err
		}
		noRes, err := exec.Simulate(c.lcNoMrg.Plan, c.measured)
		if err != nil {
			return "", err
		}
		mrgRes, err := exec.Simulate(c.lc.Plan, c.measured)
		if err != nil {
			return "", err
		}
		t.row("%-13s %10d %10d | %9.2fx %9.2fx | %9d %9d", name,
			c.lcNoMrg.NumClusters(), c.lc.NumClusters(),
			noRes.Speedup(), mrgRes.Speedup(),
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
// 4): clones made and simulated speedup per threshold.
func AblationCloneThreshold(opts Opts) (string, error) {
	h := newHarness(opts)
	t := &tb{}
	t.title("Ablation — Cloning cost threshold")
	t.row("%-13s | %22s %22s %22s", "Model", "cone<=10", "cone<=40", "cone<=120")
	for _, name := range []string{"squeezenet", "googlenet", "inception_v3"} {
		c, err := h.model(name)
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
			feeds := models.RandomInputs(prog.Graph, 1)
			mm, err := exec.MeasureCosts(prog.Graph, feeds, 1, 0)
			if err != nil {
				return "", err
			}
			mm.PaperEquivalentQueues()
			res, err := exec.Simulate(prog.Plan, mm)
			if err != nil {
				return "", err
			}
			sp := c.measured.TotalMicros() / res.Makespan
			cells = append(cells, cellFmt(prog.CloneReport.AddedNodes, sp))
		}
		t.row("%-13s | %22s %22s %22s", name, cells[0], cells[1], cells[2])
	}
	return t.String(), nil
}

func cellFmt(clones int, sp float64) string {
	return fmt.Sprintf("%d clones, %.2fx", clones, sp)
}
