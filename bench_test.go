package ramiel_test

import (
	"context"
	"testing"
	"time"

	ramiel "repro"
	"repro/internal/bench"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// benchOpts keeps the per-iteration cost of the table regenerators modest:
// small images and a single timed pair per speedup.
var benchOpts = bench.Opts{ImageSize: 32, Reps: 1}

// runTable is the common driver: regenerate the table/figure b.N times and
// report its size so the benchmark has a visible unit of work.
func runTable(b *testing.B, fn func(bench.Opts) (string, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := fn(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// One benchmark per table and figure of the paper's evaluation section.

func BenchmarkTable1PotentialParallelism(b *testing.B) { runTable(b, bench.Table1) }
func BenchmarkTable2ClusterMerging(b *testing.B)       { runTable(b, bench.Table2) }
func BenchmarkTable3ConstPropDCE(b *testing.B)         { runTable(b, bench.Table3) }
func BenchmarkTable4LinearClustering(b *testing.B)     { runTable(b, bench.Table4) }
func BenchmarkTable5IntraOp(b *testing.B)              { runTable(b, bench.Table5) }
func BenchmarkTable6LCPlusDCE(b *testing.B)            { runTable(b, bench.Table6) }
func BenchmarkTable7Overall(b *testing.B)              { runTable(b, bench.Table7) }
func BenchmarkTable8VsIOS(b *testing.B)                { runTable(b, bench.Table8) }
func BenchmarkFig12Cloning(b *testing.B)               { runTable(b, bench.Fig12) }
func BenchmarkFig13Hyperclustering(b *testing.B)       { runTable(b, bench.Fig13) }
func BenchmarkFig14SwitchedHyper(b *testing.B)         { runTable(b, bench.Fig14) }

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationMerge(b *testing.B)          { runTable(b, bench.AblationMerge) }
func BenchmarkAblationEdgeCost(b *testing.B)       { runTable(b, bench.AblationEdgeCost) }
func BenchmarkAblationCloneThreshold(b *testing.B) { runTable(b, bench.AblationCloneThreshold) }

// Micro-benchmarks of the pipeline stages themselves (compile-time story:
// LC must stay in the milliseconds while IOS explodes).

func BenchmarkLinearClusterSqueezenet(b *testing.B) { benchCompile(b, "squeezenet") }
func BenchmarkLinearClusterBERT(b *testing.B)       { benchCompile(b, "bert") }
func BenchmarkLinearClusterNASNet(b *testing.B)     { benchCompile(b, "nasnet") }

func benchCompile(b *testing.B, model string) {
	b.Helper()
	g, err := ramiel.BuildModel(model, ramiel.ModelConfig{ImageSize: 32})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ramiel.Compile(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIOSCompileSqueezenet(b *testing.B) {
	g := models.MustBuild("squeezenet", models.Config{ImageSize: 32})
	m := cost.DefaultModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.IOS(g, m, sched.DefaultIOSOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPruneBERT(b *testing.B) {
	g := models.MustBuild("bert", models.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ramiel.Compile(g, ramiel.WithPrune()); err != nil {
			b.Fatal(err)
		}
	}
}

// Executor benches: real parallel run vs sequential run on this host.

func BenchmarkRunSequentialSqueezenet(b *testing.B) {
	g := models.MustBuild("squeezenet", models.Config{ImageSize: 32})
	feeds := models.RandomInputs(g, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.RunSequential(g, feeds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunParallelSqueezenet(b *testing.B) {
	g, _ := ramiel.BuildModel("squeezenet", ramiel.ModelConfig{ImageSize: 32})
	prog, err := ramiel.Compile(g)
	if err != nil {
		b.Fatal(err)
	}
	feeds := ramiel.RandomInputs(g, 1)
	sess := prog.NewSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Run(context.Background(), feeds); err != nil {
			b.Fatal(err)
		}
	}
}

// Kernel benches, with and without intra-op parallelism (the ablation for
// the parallel-for grain).

func BenchmarkConv3x3(b *testing.B)         { benchConv(b, 1) }
func BenchmarkConv3x3IntraOp4(b *testing.B) { benchConv(b, 4) }

func benchConv(b *testing.B, threads int) {
	b.Helper()
	r := tensor.NewRNG(1)
	x := r.RandTensor(1, 16, 32, 32)
	w := r.RandTensor(32, 16, 3, 3)
	tensor.SetIntraOpThreads(threads)
	defer tensor.SetIntraOpThreads(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ramiel.Call("Conv", []*ramiel.Tensor{x, w},
			ramiel.Attrs{"pads": []int{1, 1, 1, 1}}); err != nil {
			b.Fatal(err)
		}
	}
}

// Serving benches: requests/sec through the serving runtime (compile-once
// program cache, concurrent clients) against the naive compile-per-request
// baseline the cache exists to beat.

func BenchmarkServeThroughput(b *testing.B) {
	s := serve.New(serve.Config{MaxBatch: 4, FlushTimeout: 500 * time.Microsecond})
	defer s.Close(context.Background())
	if err := s.RegisterZoo(ramiel.ModelConfig{ImageSize: 16}, "squeezenet"); err != nil {
		b.Fatal(err)
	}
	if err := s.Warm(); err != nil {
		b.Fatal(err)
	}
	feeds, err := s.RandomFeeds("squeezenet", 1)
	if err != nil {
		b.Fatal(err)
	}
	// 8 clients per core: micro-batching only coalesces under concurrent
	// load, so the client count must not collapse on small hosts.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := s.Infer(context.Background(), "squeezenet", feeds, false); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := s.Registry().Stats()
	b.ReportMetric(float64(st.Compiles), "compiles")
}

func BenchmarkServeThroughputNoBatch(b *testing.B) {
	s := serve.New(serve.Config{MaxBatch: 1})
	defer s.Close(context.Background())
	if err := s.RegisterZoo(ramiel.ModelConfig{ImageSize: 16}, "squeezenet"); err != nil {
		b.Fatal(err)
	}
	if err := s.Warm(); err != nil {
		b.Fatal(err)
	}
	feeds, err := s.RandomFeeds("squeezenet", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := s.Infer(context.Background(), "squeezenet", feeds, true); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// benchServe measures steady-state batch-1 serving of a 16 px squeezenet
// under cfg (two workers, no batching). Run with -benchmem: allocs/op is
// the serving hot path's whole per-request allocation count.
func benchServe(b *testing.B, cfg serve.Config) *serve.Server {
	cfg.Workers, cfg.MaxBatch = 2, 1
	s := serve.New(cfg)
	b.Cleanup(func() { s.Close(context.Background()) })
	if err := s.RegisterZoo(ramiel.ModelConfig{ImageSize: 16}, "squeezenet"); err != nil {
		b.Fatal(err)
	}
	if err := s.Warm(); err != nil {
		b.Fatal(err)
	}
	feeds, err := s.RandomFeeds("squeezenet", 1)
	if err != nil {
		b.Fatal(err)
	}
	// Reach steady state before measuring.
	for i := 0; i < 5; i++ {
		if _, _, err := s.Infer(context.Background(), "squeezenet", feeds, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Infer(context.Background(), "squeezenet", feeds, true); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	return s
}

// BenchmarkServeArena measures steady-state batch-1 serving on the
// per-worker session arenas and reports their hit rate: the per-request
// intermediate tensors are free-list reuse, not GC garbage.
func BenchmarkServeArena(b *testing.B) {
	b.Run("on", func(b *testing.B) {
		s := benchServe(b, serve.Config{})
		if st := s.ArenaStats(); st.Gets > 0 {
			b.ReportMetric(100*float64(st.Hits)/float64(st.Gets), "arena-hit-%")
		}
	})
}

// BenchmarkServeObs measures the serving hot path with its telemetry (stage
// histograms + request tracing), which is always on: the design target is
// zero allocations and low tens of nanoseconds per request for it.
func BenchmarkServeObs(b *testing.B) {
	b.Run("on", func(b *testing.B) { benchServe(b, serve.Config{}) })
}

// BenchmarkServeTimeline measures the serving hot path with the execution
// timeline flight recorder off (the default) vs sampling 1 run in 32. Run
// with -benchmem: the "off" variant must match the plain serving numbers
// exactly (the recorder costs one atomic load per run when absent), while
// "on" shows the amortized cost of the sampled runs' span capture.
func BenchmarkServeTimeline(b *testing.B) {
	for _, bc := range []struct {
		name  string
		every int
	}{{"off", 0}, {"on", 32}} {
		b.Run(bc.name, func(b *testing.B) { benchServe(b, serve.Config{TimelineEvery: bc.every}) })
	}
}

func BenchmarkServeCompilePerRequest(b *testing.B) {
	g := models.MustBuild("squeezenet", models.Config{ImageSize: 16})
	feeds := ramiel.RandomInputs(g, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := ramiel.Compile(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := prog.NewSession().Run(context.Background(), feeds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMul128(b *testing.B) {
	r := tensor.NewRNG(2)
	a := r.RandTensor(128, 128)
	c := r.RandTensor(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ramiel.Call("MatMul", []*ramiel.Tensor{a, c}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
