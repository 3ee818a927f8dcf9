// Command ramiel is the end-to-end tool of Section IV: it ingests a model
// (from the built-in zoo or an ONNX-subset file), runs the optimization and
// clustering pipeline, and then executes (timing the lane plan against a
// one-lane plan on this host), generates parallel Go code, or dumps reports
// (metrics, clusters, the static-model simulation, the memory plan),
// depending on flags.
//
// Examples:
//
//	ramiel -model squeezenet -report
//	ramiel -model inception_v3 -prune -clone -run
//	ramiel -model googlenet -codegen gen.go
//	ramiel -model bert -prune -save bert.onnx.json.gz
//	ramiel -load bert.onnx.json.gz -report
//	ramiel -model squeezenet -batch 4 -switched -run
//	ramiel -model nasnet -dot nasnet.dot
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	ramiel "repro"
	"repro/internal/exec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ramiel: ")

	model := flag.String("model", "", "zoo model name ("+strings.Join(ramiel.ModelNames(), ", ")+")")
	load := flag.String("load", "", "load an ONNX-subset model file instead of -model")
	img := flag.Int("img", 64, "image size for vision models")
	seed := flag.Uint64("seed", 1, "input seed")

	prune := flag.Bool("prune", false, "run constant propagation + DCE")
	clone := flag.Bool("clone", false, "run limited task cloning")
	noMerge := flag.Bool("no-merge", false, "skip the cluster-merging pass")
	noFuse := flag.Bool("no-fuse", false, "skip operator fusion (BN folding, kernel epilogues, fused elementwise chains)")
	batch := flag.Int("batch", 1, "hypercluster to this batch size (>1 enables)")
	switched := flag.Bool("switched", false, "use switched hyperclustering")
	intra := flag.Int("intra", 1, "intra-op threads for real execution")

	run := flag.Bool("run", false, "execute parallel + sequential and verify")
	arena := flag.Bool("arena", true, "use arena-backed tensor memory for -run")
	report := flag.Bool("report", false, "print metrics, clusters, the static-model simulation and the memory plan")
	timelineOut := flag.String("timeline", "", "with -run: write the timed run's execution timeline as Chrome trace-event JSON (load in Perfetto / chrome://tracing)")
	calibrate := flag.Bool("calibrate", false, "run calibration reps and report measured op cost vs the static model")
	calibrateReps := flag.Int("calibrate-reps", 5, "parallel executions to accumulate for -calibrate")
	calibrateOut := flag.String("calibrate-out", "", "with -calibrate: write the full calibration report as JSON")
	codegen := flag.String("codegen", "", "write generated parallel Go code to this file")
	save := flag.String("save", "", "save the optimized model to this file")
	dot := flag.String("dot", "", "write a Graphviz rendering colored by cluster")
	flag.Parse()

	g, err := loadGraph(*model, *load, *img)
	if err != nil {
		log.Fatal(err)
	}

	var copts []ramiel.CompileOption
	if *prune {
		copts = append(copts, ramiel.WithPrune())
	}
	if *clone {
		copts = append(copts, ramiel.WithClone())
	}
	if *noMerge {
		copts = append(copts, ramiel.WithoutMerge())
	}
	if *noFuse {
		copts = append(copts, ramiel.WithoutFusion())
	}
	prog, err := ramiel.Compile(g, copts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model %s: %d nodes, %d clusters, compile time %v\n",
		g.Name, len(prog.Graph.Nodes), prog.NumClusters(), prog.CompileTime.Round(time.Microsecond))
	if *prune {
		fmt.Printf("  pruning: folded %d nodes, removed %d dead nodes, %d dead initializers\n",
			prog.PruneReport.Fold.Folded, prog.PruneReport.DCE.RemovedNodes,
			prog.PruneReport.DCE.RemovedInitializers)
	}
	if *clone {
		fmt.Printf("  cloning: %d nodes replicated, %d replicas added\n",
			prog.CloneReport.ClonedNodes, prog.CloneReport.AddedNodes)
	}
	if fr := prog.FusionReport; fr.Any() {
		fmt.Printf("  fusion: %d BatchNorms folded, %d bias Adds and %d Transpose/Reshape nodes folded into MatMuls, %d kernel epilogues attached, %d elementwise nodes collapsed into %d chains\n",
			fr.BNFolded, fr.Biases, fr.ViewNodes, fr.Epilogues, fr.ChainNodes, fr.Chains)
	}

	if *batch > 1 {
		prog, err = prog.Hypercluster(*batch, *switched)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  hyperclustered to batch %d (switched=%v): %d lanes over %d nodes\n",
			*batch, *switched, prog.NumClusters(), len(prog.Graph.Nodes))
	}

	ramiel.SetIntraOpThreads(*intra)
	if *timelineOut != "" && !*run {
		log.Fatal("-timeline needs -run")
	}
	if *run {
		// Sample every run so the timed run in runAndVerify is captured: its
		// timeline gives the printed slack and the -timeline export.
		prog.EnableTimeline(1, 4)
	}
	did := false
	if *report {
		did = true
		printReport(prog)
	}
	if *run {
		did = true
		if err := runAndVerify(prog, *seed, *arena, *report); err != nil {
			log.Fatal(err)
		}
		if *timelineOut != "" {
			if err := exportTimeline(prog, g.Name, *timelineOut); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *calibrate {
		did = true
		if err := runCalibration(prog, *seed, *calibrateReps, *calibrateOut); err != nil {
			log.Fatal(err)
		}
	}
	if *codegen != "" {
		did = true
		genOpts := ramiel.CodegenOptions{EmitMain: true}
		if *model != "" {
			// The generated main rebuilds its environment from the zoo; it
			// must use the image size this graph was built at.
			genOpts.ModelConfigExpr = fmt.Sprintf("ramiel.ModelConfig{ImageSize: %d}", *img)
		}
		src, err := prog.GenerateGo(genOpts)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*codegen, []byte(src), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wrote %d lines of parallel Go to %s\n", strings.Count(src, "\n"), *codegen)
	}
	if *save != "" {
		did = true
		if err := ramiel.SaveModel(prog.Graph, *save); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  saved model to %s\n", *save)
	}
	if *dot != "" {
		did = true
		owner := map[string]int{}
		if prog.Clustering != nil {
			owner = prog.Clustering.ClusterOf()
		}
		if err := os.WriteFile(*dot, []byte(prog.Graph.DOT(owner)), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wrote DOT to %s\n", *dot)
	}
	if !did {
		fmt.Println("  (no action requested: use -run, -report, -calibrate, -codegen, -save or -dot)")
	}
}

func loadGraph(model, load string, img int) (*ramiel.Graph, error) {
	switch {
	case model != "" && load != "":
		return nil, fmt.Errorf("use either -model or -load, not both")
	case model != "":
		return ramiel.BuildModel(model, ramiel.ModelConfig{ImageSize: img})
	case load != "":
		return ramiel.LoadModel(load)
	default:
		return nil, fmt.Errorf("need -model <name> or -load <file>")
	}
}

func printReport(prog *ramiel.Program) {
	if prog.Clustering != nil {
		met, err := prog.Metrics()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  potential parallelism: %.2fx (node cost %.0f, critical path %.0f)\n",
			met.Parallelism, met.NodeCost, met.CriticalPath)
		fmt.Printf("  cross-cluster tensor dependences: %d\n", prog.Clustering.CrossEdges())
		sizes := make([]int, 0, prog.NumClusters())
		for _, lane := range prog.Plan.Lanes {
			sizes = append(sizes, len(lane))
		}
		sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
		fmt.Printf("  cluster sizes (desc): %v\n", sizes)
	}
	sim, err := prog.Simulate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  static-model simulation: %.2fx speedup over sequential\n", sim.Speedup())

	// Static memory plan: liveness-driven release schedule and peak forecast
	// (sizes come from one sequential sizing run, since shapes are not
	// statically inferable in this IR).
	if mp := prog.MemoryPlan(); mp != nil {
		ms := mp.Summary()
		fmt.Printf("  memory plan: %d managed values (%d dead on arrival)\n", ms.Managed, ms.ZeroUse)
		est, err := prog.MemoryEstimate()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  memory estimate: peak live %s, unreused total %s\n",
			fmtBytes(est.PeakLiveBytes), fmtBytes(est.TotalBytes))
		if est.ScratchBytes > 0 {
			fmt.Printf("  kernel scratch: up to %s per lane (im2col + GEMM packing)\n",
				fmtBytes(est.ScratchBytes))
		}
	}
	if nodes, bytes := prog.PrepackedWeights(); nodes > 0 {
		fmt.Printf("  prepacked weights: %d nodes, %s packed at compile time\n",
			nodes, fmtBytes(bytes))
	}
}

func runAndVerify(prog *ramiel.Program, seed uint64, useArena, report bool) error {
	ctx := context.Background()
	feeds := ramiel.RandomInputs(prog.Graph, seed)
	want, err := prog.RunSequential(feeds)
	if err != nil {
		return err
	}
	// The speedup baseline is the same compiled graph on a one-lane plan,
	// run through the same Session path (arena, prepacked weights, in-place
	// ops) as the parallel plan. RunSequential, which runs on the heap and
	// packs weights on every call, is only the correctness reference.
	onePlan, err := exec.SequentialPlan(prog.Graph)
	if err != nil {
		return err
	}
	onePlan.PrepackWeights()
	oneLane := &ramiel.Program{Graph: prog.Graph, Plan: onePlan}
	// Both timed runs record a timeline, so they pay the same recording cost.
	oneLane.EnableTimeline(1, 1)
	var sopts []ramiel.SessionOption
	if !useArena {
		sopts = append(sopts, ramiel.WithoutArena())
	}
	// timed warms the session untimed, so the printed speedup compares
	// steady states rather than cold-start vs warm-arena, then times and
	// verifies one run.
	timed := func(s *ramiel.Session) (time.Duration, error) {
		if _, err := s.Run(ctx, feeds); err != nil {
			return 0, err
		}
		t0 := time.Now()
		got, err := s.Run(ctx, feeds)
		took := time.Since(t0)
		if err != nil {
			return 0, err
		}
		for k, w := range want {
			if !got[k].AllClose(w, 1e-4, 1e-5) {
				return 0, fmt.Errorf("output %q differs between the compiled plan and the sequential reference", k)
			}
		}
		return took, nil
	}
	seq, err := timed(oneLane.NewSession(sopts...))
	if err != nil {
		return err
	}
	sess := prog.NewSession(sopts...)
	par, err := timed(sess)
	if err != nil {
		return err
	}
	fmt.Printf("  run: one lane %v, parallel %v (%.2fx on this host), outputs verified\n",
		seq.Round(time.Microsecond), par.Round(time.Microsecond), float64(seq)/float64(par))
	if tl := prog.LastTimeline(); tl != nil {
		fmt.Printf("  timeline: op time %v, slack (blocked on receives) %v across %d lanes\n",
			time.Duration(tl.OpTimeNs()).Round(time.Microsecond),
			time.Duration(tl.WaitTimeNs()).Round(time.Microsecond), tl.Lanes)
	}
	if ar := sess.Arena(); ar != nil {
		st := ar.Stats().Snapshot()
		hitRate := 0.0
		if st.Gets > 0 {
			hitRate = 100 * float64(st.Hits) / float64(st.Gets)
		}
		fmt.Printf("  arena: %d gets (%.0f%% hits), %d puts, peak %s, fresh heap %s\n",
			st.Gets, hitRate, st.Puts, fmtBytes(st.PeakBytes), fmtBytes(st.AllocBytes))
	}
	if report {
		printOpTable(prog, 8)
	}
	return nil
}

// printOpTable prints the top-n operator types of the program by measured
// cumulative execution time — the same live counters the serving stack
// exposes at /v1/stats and /metrics, accumulated here by the verify runs.
func printOpTable(prog *ramiel.Program, n int) {
	totals := prog.OpTotals()
	if len(totals) == 0 {
		return
	}
	var sum int64
	for _, t := range totals {
		sum += t.TotalNs
	}
	fmt.Printf("  op time (top %d of %d op types, %v total):\n",
		min(n, len(totals)), len(totals), time.Duration(sum).Round(time.Microsecond))
	for i, t := range totals {
		if i >= n {
			break
		}
		fmt.Printf("    %-16s %6d calls  %10v  (%4.1f%%)\n",
			t.Op, t.Count, time.Duration(t.TotalNs).Round(time.Microsecond),
			100*float64(t.TotalNs)/float64(sum))
	}
}

// exportTimeline writes the last sampled run's timeline as Chrome
// trace-event JSON and prints the measured critical path it implies.
func exportTimeline(prog *ramiel.Program, model, path string) error {
	tl := prog.LastTimeline()
	if tl == nil {
		return fmt.Errorf("no timeline recorded")
	}
	data, err := tl.ChromeTrace(model)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote Chrome trace (%d spans, %d lanes, wall %v) to %s\n",
		len(tl.Spans), tl.Lanes, time.Duration(tl.WallNs).Round(time.Microsecond), path)
	rep, err := prog.CriticalPathFromTimeline(tl)
	if err != nil {
		return err
	}
	fmt.Printf("  measured critical path: %d steps, op %v + wait %v of wall %v (%.0f%% on the statically predicted path)\n",
		len(rep.Steps), time.Duration(rep.OpNs).Round(time.Microsecond),
		time.Duration(rep.WaitNs).Round(time.Microsecond),
		time.Duration(rep.WallNs).Round(time.Microsecond), 100*rep.Overlap)
	n := len(rep.Steps)
	for i, st := range rep.Steps {
		if n > 10 && i >= 5 && i < n-5 {
			if i == 5 {
				fmt.Printf("    ... %d more steps ...\n", n-10)
			}
			continue
		}
		fmt.Printf("    lane %2d %-24s %-12s %10v (+%v wait)\n",
			st.Lane, st.Node, st.Op,
			time.Duration(st.DurNs).Round(time.Microsecond),
			time.Duration(st.WaitNs).Round(time.Microsecond))
	}
	return nil
}

// runCalibration accumulates reps parallel executions and compares the
// measured per-op costs against the static model driving clustering.
func runCalibration(prog *ramiel.Program, seed uint64, reps int, out string) error {
	ctx := context.Background()
	feeds := ramiel.RandomInputs(prog.Graph, seed)
	sess := prog.NewSession()
	for i := 0; i < max(reps, 1); i++ {
		if _, err := sess.Run(ctx, feeds); err != nil {
			return err
		}
	}
	c := prog.Calibrate()
	if c == nil {
		return fmt.Errorf("calibration recorded no op executions")
	}
	fmt.Printf("  calibration: %d nodes over %d reps, baseline %.4g us/weight, rank correlation %.3f\n",
		c.Nodes, max(reps, 1), c.BaselineUsPerWt, c.RankCorrelation)
	fmt.Printf("    %-16s %6s %12s %10s %8s %8s\n", "op", "calls", "total", "mean", "static", "ratio")
	for _, oc := range c.Ops {
		fmt.Printf("    %-16s %6d %12v %8.1fus %8.0f %7.2fx\n",
			oc.Op, oc.Count, time.Duration(oc.TotalNs).Round(time.Microsecond),
			oc.MeanUs, oc.StaticWt, oc.Ratio)
	}
	if len(c.Worst) > 0 {
		fmt.Println("  worst static-model offenders (|log2 measured/static| desc):")
		for _, oc := range c.Worst {
			dir := "slower"
			if oc.Log2Ratio < 0 {
				dir = "faster"
			}
			fmt.Printf("    %-16s %.1fx %s than the static weight predicts\n",
				oc.Op, math.Pow(2, math.Abs(oc.Log2Ratio)), dir)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(c, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote calibration report to %s\n", out)
	}
	return nil
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
