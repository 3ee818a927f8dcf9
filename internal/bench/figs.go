package bench

import (
	"fmt"

	ramiel "repro"
	"repro/internal/tensor"
)

// Fig12 reproduces "Performance uplift of cloned models versus non-cloned
// models": cloning's relative improvement over plain LC (paper: up to 8%,
// applied to the smaller conv graphs). Both are timed against the plain
// program's one-lane run, so the clones' redundant work counts.
func Fig12(opts Opts) (string, error) {
	t := &tb{}
	t.title("Fig. 12 — Cloning uplift over plain LC, " + measured(opts))
	t.row("%-13s %8s %9s %8s %9s", "Model", "S_LC", "S_Clone", "Uplift", "#Clones")
	for _, name := range []string{"squeezenet", "googlenet", "inception_v3", "inception_v4", "retinanet"} {
		c, err := model(name, opts)
		if err != nil {
			return "", err
		}
		sp, err := speedups(opts, c.lc, c.lc, c.cloned)
		if err != nil {
			return "", fmt.Errorf("%s: %w", name, err)
		}
		t.row("%-13s %7.2fx %8.2fx %+7.1f%% %9d", name, sp[0], sp[1],
			(sp[1]/sp[0]-1)*100, c.cloned.CloneReport.AddedNodes)
	}
	t.blank()
	t.row("Paper: cloning gives a moderate boost, up to 8%%, on the smaller conv graphs.")
	return t.String(), nil
}

// hyperSpeedups measures the batch-b hypercluster of p for each switched
// variant against its own batched one-lane run, first without and then
// with 2 intra-op threads on both sides: the no-intra-op speedups of the
// variants, then the intra-op ones.
func hyperSpeedups(opts Opts, p *ramiel.Program, batch int, variants ...bool) ([]float64, error) {
	var xs []float64
	for _, threads := range []int{1, 2} {
		for _, switched := range variants {
			hp, err := p.Hypercluster(batch, switched)
			if err != nil {
				return nil, err
			}
			var sp ramiel.Speedup
			tensor.WithIntraOpThreads(threads, func() { sp, err = ramiel.MeasureSpeedup(hp, hp, opts.Reps) })
			if err != nil {
				return nil, err
			}
			xs = append(xs, sp.X())
		}
	}
	return xs, nil
}

// Fig13 reproduces "Performance of hyperclustering with batch sizes of
// 2, 4, 8, 12, with and without intra-op": speedup of the hyperclustered
// parallel program over its own batched one-lane run.
func Fig13(opts Opts) (string, error) {
	t := &tb{}
	t.title("Fig. 13 — Hyperclustering speedup vs batch size, " + measured(opts))
	t.row("%-13s %6s | %10s %10s", "Model", "Batch", "NoIntraOp", "IntraOp2")
	for _, name := range []string{"squeezenet", "googlenet", "inception_v3"} {
		c, err := model(name, opts)
		if err != nil {
			return "", err
		}
		for _, batch := range []int{2, 4, 8, 12} {
			sp, err := hyperSpeedups(opts, c.lc, batch, false)
			if err != nil {
				return "", fmt.Errorf("%s batch %d: %w", name, batch, err)
			}
			t.row("%-13s %6d | %9.2fx %9.2fx", name, batch, sp[0], sp[1])
		}
		t.blank()
	}
	t.row("Paper: speedup rises with batch size (up to the hardware thread limit).")
	return t.String(), nil
}

// Fig14 reproduces "Switched hyperclustering with batch sizes of 2, 3, 4
// for Squeezenet, with and without intra-op", comparing plain and switched
// hypercluster variants, each against its own batched one-lane run.
func Fig14(opts Opts) (string, error) {
	t := &tb{}
	t.title("Fig. 14 — Switched hyperclustering on Squeezenet, " + measured(opts))
	t.row("%6s | %9s %9s %8s | %10s %10s", "Batch", "Plain", "Switched", "Uplift", "Plain+IOp", "Switch+IOp")
	c, err := model("squeezenet", opts)
	if err != nil {
		return "", err
	}
	for _, batch := range []int{2, 3, 4} {
		sp, err := hyperSpeedups(opts, c.lc, batch, false, true)
		if err != nil {
			return "", fmt.Errorf("squeezenet batch %d: %w", batch, err)
		}
		t.row("%6d | %8.2fx %8.2fx %+7.1f%% | %9.2fx %9.2fx", batch,
			sp[0], sp[1], (sp[1]/sp[0]-1)*100, sp[2], sp[3])
	}
	t.blank()
	t.row("Paper: switched hyperclusters improve load balance, up to ~30%% in the best cases.")
	return t.String(), nil
}
