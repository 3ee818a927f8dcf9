package bench

import (
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/models"
	"repro/internal/sched"
)

// Table1 reproduces "Potential parallelism that exists in ML dataflow
// graphs": node counts, weighted node cost, weighted critical path and the
// parallelism factor, next to the paper's numbers.
func Table1(opts Opts) (string, error) {
	h := newHarness(opts)
	t := &tb{}
	t.title("Table I — Potential parallelism of ML dataflow graphs")
	t.row("%-13s %7s %9s %9s %7s | %7s %7s (paper)", "Model", "#Nodes", "NodeCost", "CPCost", "||ism", "#Nodes", "||ism")
	m := cost.DefaultModel()
	for _, name := range models.TableOrder {
		c, err := h.model(name)
		if err != nil {
			return "", err
		}
		met, err := cost.ComputeMetrics(c.g, m)
		if err != nil {
			return "", err
		}
		ref := models.PaperRefs[name]
		t.row("%-13s %7d %9.0f %9.0f %6.2fx | %7d %6.2fx", name,
			met.Nodes, met.NodeCost, met.CriticalPath, met.Parallelism,
			ref.Nodes, ref.Parallelism)
	}
	return t.String(), nil
}

// Table2 reproduces "Number of clusters formed, before and after cluster
// merging".
func Table2(opts Opts) (string, error) {
	h := newHarness(opts)
	t := &tb{}
	t.title("Table II — Clusters before and after Cluster Merging")
	t.row("%-13s %8s %8s | %8s %8s (paper)", "Model", "Before", "After", "Before", "After")
	for _, name := range models.TableOrder {
		c, err := h.model(name)
		if err != nil {
			return "", err
		}
		ref := models.PaperRefs[name]
		t.row("%-13s %8d %8d | %8d %8d", name,
			c.lcNoMrg.NumClusters(), c.lc.NumClusters(),
			ref.ClustersPreMrg, ref.ClustersPost)
	}
	return t.String(), nil
}

// Table3 reproduces "Cluster size post constant propagation and dead-code
// elimination" for the constant-bearing models.
func Table3(opts Opts) (string, error) {
	h := newHarness(opts)
	t := &tb{}
	t.title("Table III — Clusters after Constant Propagation + DCE")
	t.row("%-13s %8s %8s | %8s %8s (paper)", "Model", "Before", "After", "Before", "After")
	for _, name := range []string{"yolo_v5", "nasnet", "bert"} {
		c, err := h.model(name)
		if err != nil {
			return "", err
		}
		ref := models.PaperRefs[name]
		t.row("%-13s %8d %8d | %8d %8d", name,
			c.lc.NumClusters(), c.pruned.NumClusters(),
			ref.ClustersPost, ref.ClustersDCE)
	}
	return t.String(), nil
}

// Table4 reproduces "Performance of Linear Clustering": sequential vs
// parallel time and speedup, using measured kernel durations replayed on a
// simulated 12-core machine with paper-equivalent queue costs.
func Table4(opts Opts) (string, error) {
	h := newHarness(opts)
	t := &tb{}
	t.title("Table IV — Performance of Linear Clustering (simulated 12-core, measured kernel costs)")
	t.row("%-13s %6s %9s %9s %8s | %8s (paper)", "Model", "#Clus", "Seq(ms)", "Par(ms)", "Speedup", "Speedup")
	for _, name := range models.TableOrder {
		c, err := h.model(name)
		if err != nil {
			return "", err
		}
		seq, par, sp, err := simSpeedup(c.lc, c.measured)
		if err != nil {
			return "", err
		}
		ref := models.PaperRefs[name]
		t.row("%-13s %6d %9.2f %9.2f %7.2fx | %7.2fx", name,
			c.lc.NumClusters(), seq, par, sp, ref.SpeedupLC)
	}
	return t.String(), nil
}

// Table5 reproduces "LC + downstream intra-op parallelism": parallel and
// sequential times with 2 and 4 intra-op threads; the comparison baseline
// is pure intra-op (sequential plan with the same thread count), as in the
// paper.
func Table5(opts Opts) (string, error) {
	h := newHarness(opts)
	t := &tb{}
	t.title("Table V — LC + downstream intra-op parallelism (both sides intra-op enabled)")
	t.row("%-13s | %8s %8s %8s | %8s %8s %8s | %8s", "Model",
		"Par2(ms)", "Seq2(ms)", "Speedup2", "Par4(ms)", "Seq4(ms)", "Speedup4", "BestOvrl")
	rows := []string{"squeezenet", "googlenet", "inception_v3", "inception_v4", "retinanet", "nasnet"}
	for _, name := range rows {
		c, err := h.model(name)
		if err != nil {
			return "", err
		}
		lanes := c.lc.NumClusters()
		bestSeq, bestPar := -1.0, -1.0
		cells := make([]float64, 0, 6)
		for _, threads := range []int{2, 4} {
			conf := exec.IntraOpConfig{Threads: threads, Cores: opts.Cores}
			parModel := exec.WithIntraOp(c.measured, conf, lanes)
			parRes, err := exec.Simulate(c.lc.Plan, parModel)
			if err != nil {
				return "", err
			}
			seqModel := exec.WithIntraOp(c.measured, conf, 1)
			seqPlan, err := exec.SequentialPlan(c.lc.Graph)
			if err != nil {
				return "", err
			}
			seqRes, err := exec.Simulate(seqPlan, seqModel)
			if err != nil {
				return "", err
			}
			par := parRes.Makespan / 1000
			seq := seqRes.Makespan / 1000
			cells = append(cells, par, seq, seq/par)
			if bestSeq < 0 || seq < bestSeq {
				bestSeq = seq
			}
			if bestPar < 0 || par < bestPar {
				bestPar = par
			}
		}
		t.row("%-13s | %8.2f %8.2f %7.2fx | %8.2f %8.2f %7.2fx | %7.2fx", name,
			cells[0], cells[1], cells[2], cells[3], cells[4], cells[5], bestSeq/bestPar)
	}
	return t.String(), nil
}

// Table6 reproduces "LC augmented with constant propagation and DCE".
func Table6(opts Opts) (string, error) {
	h := newHarness(opts)
	t := &tb{}
	t.title("Table VI — LC + Constant Propagation + DCE")
	t.row("%-13s %8s %8s | %8s %8s (paper)", "Model", "S_LC", "S_LC+DCE", "S_LC", "S_LC+DCE")
	for _, name := range []string{"yolo_v5", "bert", "nasnet"} {
		c, err := h.model(name)
		if err != nil {
			return "", err
		}
		_, _, lcSp, err := simSpeedup(c.lc, c.measured)
		if err != nil {
			return "", err
		}
		// Pruned speedup is measured against the UNPRUNED sequential time:
		// DCE removes work, so both the numerator and the clustering
		// improve.
		prRes, err := exec.Simulate(c.pruned.Plan, c.prMeas)
		if err != nil {
			return "", err
		}
		baseSeq := c.measured.TotalMicros()
		dceSp := baseSeq / prRes.Makespan
		ref := models.PaperRefs[name]
		t.row("%-13s %7.2fx %7.2fx | %7.2fx %7.2fx", name, lcSp, dceSp, ref.SpeedupLC, ref.SpeedupDCE)
	}
	return t.String(), nil
}

// Table7 reproduces "overall impact of LC, CP+DCE and cloning".
func Table7(opts Opts) (string, error) {
	h := newHarness(opts)
	t := &tb{}
	t.title("Table VII — Overall: LC + CP/DCE + Cloning")
	t.row("%-13s %8s %8s %9s %9s | %8s %9s (paper)", "Model",
		"S_LC", "S_+DCE", "S_+Clone", "S_Overall", "S_LC", "S_Overall")
	for _, name := range models.TableOrder {
		c, err := h.model(name)
		if err != nil {
			return "", err
		}
		_, _, lcSp, err := simSpeedup(c.lc, c.measured)
		if err != nil {
			return "", err
		}
		baseSeq := c.measured.TotalMicros()
		prRes, err := exec.Simulate(c.pruned.Plan, c.prMeas)
		if err != nil {
			return "", err
		}
		clRes, err := exec.Simulate(c.cloned.Plan, c.clMeas)
		if err != nil {
			return "", err
		}
		bestRes, err := exec.Simulate(c.best.Plan, c.bestMeas)
		if err != nil {
			return "", err
		}
		dceSp := baseSeq / prRes.Makespan
		cloneSp := baseSeq / clRes.Makespan
		overall := baseSeq / bestRes.Makespan
		if lcSp > overall {
			overall = lcSp // "overall" is the best of the variants
		}
		if dceSp > overall {
			overall = dceSp
		}
		if cloneSp > overall {
			overall = cloneSp
		}
		ref := models.PaperRefs[name]
		t.row("%-13s %7.2fx %7.2fx %8.2fx %8.2fx | %7.2fx %8.2fx", name,
			lcSp, dceSp, cloneSp, overall, ref.SpeedupLC, ref.SpeedupOverall)
	}
	return t.String(), nil
}

// Table8 reproduces the comparison with the IOS inter-operator scheduler:
// achieved speedup and compile time for both systems on the shared
// benchmarks.
func Table8(opts Opts) (string, error) {
	h := newHarness(opts)
	t := &tb{}
	t.title("Table VIII — Ours vs IOS (speedup and compile time)")
	t.row("%-13s %9s %10s %9s %10s %9s", "Model", "S_Ours", "CT_Ours", "S_IOS", "CT_IOS", "DPstates")
	for _, name := range []string{"squeezenet", "inception_v3", "nasnet"} {
		c, err := h.model(name)
		if err != nil {
			return "", err
		}
		// Ours: best variant speedup, pipeline compile time.
		bestRes, err := exec.Simulate(c.best.Plan, c.bestMeas)
		if err != nil {
			return "", err
		}
		oursSp := c.measured.TotalMicros() / bestRes.Makespan
		oursCT := c.best.CompileTime

		iosStart := time.Now()
		iosSched, err := sched.IOS(c.lc.Graph, c.measured, sched.DefaultIOSOptions())
		if err != nil {
			return "", err
		}
		iosCT := time.Since(iosStart)
		iosSp := 0.0
		if iosSched.Makespan > 0 {
			iosSp = c.measured.TotalMicros() / iosSched.Makespan
		}
		t.row("%-13s %8.2fx %10s %8.2fx %10s %9d", name,
			oursSp, fmtDur(oursCT), iosSp, fmtDur(iosCT), iosSched.StatesExplored)
	}
	t.blank()
	t.row("Paper: squeezenet 0.95x/2.2s vs IOS 1.15x/60s; inception 1.55x/5.2s vs 1.59x/60s;")
	t.row("       nasnet 1.91x/9.7s vs 1.4x/5400s — LC compiles 10-500x faster at similar runtime.")
	return t.String(), nil
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
